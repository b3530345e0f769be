module P = Dce_core.Policy
module R = Dce_core.Right
module L = Dce_core.Admin_log
module J = Dce_obs.Json

type region = At_none | Range of int * int option

type change = {
  users : Dce_core.Subject.user list;
  right : R.t;
  region : region;
  before : bool;
  after : bool;
}

let policies a b =
  let classes = Classes.build [ a; b ] in
  let ea, _ = Engine.build ~classes a in
  let eb, _ = Engine.build ~classes b in
  let changes = ref [] in
  for k = 0 to Classes.count classes - 1 do
    let users = Classes.members classes k in
    List.iter
      (fun r ->
        let none_allow e =
          match Engine.cell_none e ~klass:k ~right:r with
          | Some (_, al) -> al
          | None -> false
        in
        let bn = none_allow ea and an = none_allow eb in
        if bn <> an then
          changes :=
            { users; right = r; region = At_none; before = bn; after = an }
            :: !changes;
        let ra = Engine.cell_ranges ea ~klass:k ~right:r
        and rb = Engine.cell_ranges eb ~klass:k ~right:r in
        if ra <> [] || rb <> [] then begin
          (* boundary positions of either side; the decision pair is
             constant between consecutive boundaries *)
          let bounds =
            List.sort_uniq compare
              (List.concat_map
                 (fun (lo, hi, _, _) ->
                   lo :: (match hi with Some h -> [ h + 1 ] | None -> []))
                 (ra @ rb))
          in
          let eval e p =
            match Engine.decision e ~klass:k ~right:r ~pos:(Some p) with
            | Some (_, al) -> al
            | None -> false
          in
          let rec segs = function
            | [] -> []
            | [ lo ] -> [ (lo, None) ]
            | lo :: (next :: _ as rest) -> (lo, Some (next - 1)) :: segs rest
          in
          let pending = ref None in
          let flush () =
            match !pending with
            | Some (lo, hi, bf, af) ->
              changes :=
                { users; right = r; region = Range (lo, hi); before = bf; after = af }
                :: !changes;
              pending := None
            | None -> ()
          in
          List.iter
            (fun (lo, hi) ->
              let bf = eval ea lo and af = eval eb lo in
              if bf <> af then
                match !pending with
                | Some (plo, Some ph, pbf, paf) when ph + 1 = lo && pbf = bf && paf = af
                  ->
                  pending := Some (plo, hi, bf, af)
                | Some _ ->
                  flush ();
                  pending := Some (lo, hi, bf, af)
                | None -> pending := Some (lo, hi, bf, af)
              else flush ())
            (segs bounds);
          flush ()
        end)
      R.all
  done;
  List.rev !changes

let trajectory log =
  List.map
    (fun (r : Dce_core.Admin_op.request) ->
      let v = r.Dce_core.Admin_op.version in
      let a = Option.get (L.policy_at log (v - 1)) in
      let b = Option.get (L.policy_at log v) in
      (r, policies a b))
    (L.requests log)

let affects changes ~user ~right ~pos =
  List.exists
    (fun c ->
      R.equal c.right right
      && List.mem user c.users
      &&
      match (c.region, pos) with
      | At_none, None -> true
      | Range (lo, hi), Some p ->
        lo <= p && (match hi with Some h -> p <= h | None -> true)
      | At_none, Some _ | Range _, None -> false)
    changes

let pp_region ppf = function
  | At_none -> Format.pp_print_string ppf "@-"
  | Range (lo, Some hi) when lo = hi -> Format.fprintf ppf "@@%d" lo
  | Range (lo, Some hi) -> Format.fprintf ppf "@@[%d,%d]" lo hi
  | Range (lo, None) -> Format.fprintf ppf "@@[%d,inf)" lo

let pp_users ppf = function
  | [ u ] -> Format.fprintf ppf "s%d" u
  | us when List.length us <= 6 ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_int)
      us
  | us -> Format.fprintf ppf "{%d users}" (List.length us)

let pp_change ppf c =
  Format.fprintf ppf "%a %a %a: %s -> %s" pp_users c.users R.pp c.right pp_region
    c.region
    (if c.before then "allow" else "deny")
    (if c.after then "allow" else "deny")

let change_to_json c =
  J.Obj
    [
      ("users", J.List (List.map (fun u -> J.Int u) c.users));
      ("right", J.String (R.to_string c.right));
      ( "region",
        match c.region with
        | At_none -> J.Null
        | Range (lo, hi) ->
          J.Obj
            [
              ("lo", J.Int lo);
              ("hi", match hi with Some h -> J.Int h | None -> J.Null);
            ] );
      ("before", J.Bool c.before);
      ("after", J.Bool c.after);
    ]
