exception Edit_conflict of string

let conflict fmt = Format.kasprintf (fun s -> raise (Edit_conflict s)) fmt

let check_expected ~eq ~what ~pos ~found ~expected =
  if not (eq found expected) then
    conflict "%s at position %d: unexpected element" what pos

module Array_doc = struct
  type 'e t = 'e array

  let of_list = Array.of_list
  let length = Array.length
  let get doc i = doc.(i)

  let apply ?(eq = ( = )) doc op =
    match op with
    | Op.Nop -> doc
    | Op.Ins { pos; elt; _ } | Op.Undel { pos; elt } ->
      let n = Array.length doc in
      if pos < 0 || pos > n then invalid_arg "Array_doc.apply: Ins out of bounds";
      Array.init (n + 1) (fun i ->
          if i < pos then doc.(i) else if i = pos then elt else doc.(i - 1))
    | Op.Del { pos; elt } ->
      let n = Array.length doc in
      if pos < 0 || pos >= n then invalid_arg "Array_doc.apply: Del out of bounds";
      check_expected ~eq ~what:"Del" ~pos ~found:doc.(pos) ~expected:elt;
      Array.init (n - 1) (fun i -> if i < pos then doc.(i) else doc.(i + 1))
    | Op.Up { pos; before; after; _ } ->
      let n = Array.length doc in
      if pos < 0 || pos >= n then invalid_arg "Array_doc.apply: Up out of bounds";
      check_expected ~eq ~what:"Up" ~pos ~found:doc.(pos) ~expected:before;
      Array.init n (fun i -> if i = pos then after else doc.(i))
    | Op.Unup { pos; value; _ } ->
      let n = Array.length doc in
      if pos < 0 || pos >= n then invalid_arg "Array_doc.apply: Unup out of bounds";
      Array.init n (fun i -> if i = pos then value else doc.(i))
end

module Str = struct
  type t = char Array_doc.t

  let of_string s = Array_doc.of_list (List.init (String.length s) (String.get s))
  let to_string d = String.init (Array_doc.length d) (Array_doc.get d)
  let apply d o = Array_doc.apply ~eq:Char.equal d o
end
