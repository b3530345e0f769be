(* Shared test utilities: generators for tombstone documents, operations
   and multi-site scenarios, plus Alcotest testables. *)

open Dce_ot

let op_testable = Alcotest.testable (Op.pp Fmt.char) (Op.equal Char.equal)

let tdoc_testable = Alcotest.testable (Tdoc.pp Fmt.char) (Tdoc.equal_model Char.equal)

let tdoc_visible_testable =
  Alcotest.testable (Tdoc.pp Fmt.char) (Tdoc.equal_visible Char.equal)

(* ----- QCheck generators ----- *)

let gen_char = QCheck2.Gen.char_range 'a' 'z'

(* write tags must be unique per generated update *)
let stamp_counter = ref 0

let fresh_tag pr =
  incr stamp_counter;
  { Op.stamp = !stamp_counter; site = pr }

(* A tombstone document with a sprinkling of hidden cells, as arises after
   some editing. *)
let gen_tdoc =
  let open QCheck2.Gen in
  list_size (int_range 0 12) (pair gen_char (int_range 0 2))
  >|= fun cells ->
  Tdoc.apply_all
    (Tdoc.of_list (List.map fst cells))
    (List.concat
       (List.mapi
          (fun i (c, hide) -> List.init hide (fun _ -> Op.del i c))
          cells))

(* A random operation valid on the model of [doc], issued with priority
   [pr].  Covers insertions anywhere, deletions of any cell (hidden cells
   included: hide counts stack), updates of any cell, and un-deletions of
   hidden cells. *)
let gen_valid_op ~pr doc =
  let open QCheck2.Gen in
  let n = Tdoc.model_length doc in
  let ins = map2 (fun p e -> Op.ins ~pr p e) (int_range 0 n) gen_char in
  if n = 0 then ins
  else
    let hidden =
      List.filter (fun i -> (Tdoc.cell doc i).Tdoc.hidden > 0) (List.init n Fun.id)
    in
    let cell_op =
      int_range 0 (n - 1) >>= fun p ->
      let elt = (Tdoc.cell doc p).Tdoc.elt in
      frequency
        [ (2, return (Op.del p elt)); (2, map (fun e -> Op.up ~tag:(fresh_tag pr) p elt e) gen_char) ]
    in
    let cases = [ (3, ins); (4, cell_op) ] in
    let cases =
      match hidden with
      | [] -> cases
      | _ ->
        ( 1,
          oneofl hidden >|= fun p -> Op.undel p (Tdoc.cell doc p).Tdoc.elt )
        :: cases
    in
    frequency cases

(* Operations a user can actually issue: Ins/Del/Up (Undel and Unup are
   system-only inverses).  Request histories must use this generator. *)
let gen_user_op ~pr doc =
  let open QCheck2.Gen in
  let n = Tdoc.model_length doc in
  let ins = map2 (fun p e -> Op.ins ~pr p e) (int_range 0 n) gen_char in
  if n = 0 then ins
  else
    let cell_op =
      int_range 0 (n - 1) >>= fun p ->
      let c = Tdoc.cell doc p in
      frequency
        [ (2, return (Op.del p c.Tdoc.elt));
          (2, map (fun e -> Op.up ~tag:(fresh_tag pr) p (Tdoc.content c) e) gen_char) ]
    in
    frequency [ (3, ins); (4, cell_op) ]

(* A non-insertion operation on a non-empty model: what Canonize moves
   insertions across. *)
let gen_valid_non_ins_op ~pr doc =
  let open QCheck2.Gen in
  let n = Tdoc.model_length doc in
  assert (n > 0);
  int_range 0 (n - 1) >>= fun p ->
  let c = Tdoc.cell doc p in
  let base =
    [ (2, return (Op.del p c.Tdoc.elt));
      (2, map (fun e -> Op.up ~tag:(fresh_tag pr) p (Tdoc.content c) e) gen_char) ]
  in
  let cases =
    if c.Tdoc.hidden > 0 then (1, return (Op.undel p c.Tdoc.elt)) :: base else base
  in
  frequency cases

(* Two concurrent [Undel]s of the same cell cannot arise in the protocol
   (each request is cancelled by exactly one administrative cut), so
   generated concurrent sets exclude them. *)
let compatible ops =
  let undel_pos =
    List.filter_map (function Op.Undel { pos; _ } -> Some pos | _ -> None) ops
  in
  List.length undel_pos = List.length (List.sort_uniq compare undel_pos)

(* A document together with concurrent ops on it, from distinct sites. *)
let gen_doc_two_ops =
  let open QCheck2.Gen in
  let rec gen () =
    gen_tdoc >>= fun doc ->
    gen_valid_op ~pr:1 doc >>= fun o1 ->
    gen_valid_op ~pr:2 doc >>= fun o2 ->
    if compatible [ o1; o2 ] then return (doc, o1, o2) else gen ()
  in
  gen ()

let gen_doc_three_ops =
  let open QCheck2.Gen in
  let rec gen () =
    gen_tdoc >>= fun doc ->
    gen_valid_op ~pr:1 doc >>= fun o1 ->
    gen_valid_op ~pr:2 doc >>= fun o2 ->
    gen_valid_op ~pr:3 doc >>= fun o3 ->
    if compatible [ o1; o2; o3 ] then return (doc, o1, o2, o3) else gen ()
  in
  gen ()

let pp_char_op = Op.pp Fmt.char

let show_tdoc d = Format.asprintf "%a" (Tdoc.pp Fmt.char) d

let print_doc_two_ops (doc, o1, o2) =
  Format.asprintf "doc=%s o1=%a o2=%a" (show_tdoc doc) pp_char_op o1 pp_char_op o2

let print_doc_three_ops (doc, o1, o2, o3) =
  Format.asprintf "doc=%s o1=%a o2=%a o3=%a" (show_tdoc doc) pp_char_op o1 pp_char_op o2
    pp_char_op o3

(* ----- chunk-edge documents -----

   [Tdoc] packs cells into chunks of 64, and an insertion into a full
   chunk splits it into two halves, so chunk edges sit at multiples of
   64 after [of_cells] and near multiples of 32 after splits.  These
   documents span three to five chunks, with hidden and written cells
   scattered through them, and the op sequences aim at those edges, at
   the middle of full chunks (where they split) and at the document's
   end.  The generator tracks the state on [Tdoc_ref], so it does not
   depend on the code under test.  [test_ot] checks [Tdoc] against the
   reference on them; [test_wire] checks the state codec. *)

let chunk_cells = 64

(* cell [i] of a generated document: plain, hidden, written, or both;
   write tags are unique per cell (site 9 never issues an op here) *)
let gen_scattered_cell i =
  let open QCheck2.Gen in
  let write j =
    map2
      (fun value retracted -> { Tdoc.wtag = { Op.stamp = (4 * i) + j; site = 9 }; value; retracted })
      gen_char (int_range 0 1)
  in
  let writes = int_range 1 2 >>= fun k -> flatten_l (List.init k write) in
  gen_char >>= fun elt ->
  frequency
    [
      (6, return { Tdoc.elt; writes = []; hidden = 0 });
      (2, map (fun hidden -> { Tdoc.elt; writes = []; hidden }) (int_range 1 2));
      (1, map (fun writes -> { Tdoc.elt; writes; hidden = 0 }) writes);
      (1, map2 (fun writes hidden -> { Tdoc.elt; writes; hidden }) writes (int_range 1 2));
    ]

let gen_chunked_cells =
  let open QCheck2.Gen in
  int_range ((2 * chunk_cells) + 1) (5 * chunk_cells) >>= fun n ->
  flatten_l (List.init n gen_scattered_cell)

(* a position in [0, n) — or [0, n] with [~ends] — aimed at a chunk edge
   (a multiple of 32, one either side), otherwise uniform *)
let gen_edge_pos ?(ends = false) n =
  let open QCheck2.Gen in
  let hi = if ends then n else n - 1 in
  let edges =
    List.filter
      (fun p -> p >= 0 && p <= hi)
      (hi :: List.concat_map (fun b -> [ (32 * b) - 1; 32 * b; (32 * b) + 1 ]) (List.init ((n / 32) + 2) Fun.id))
  in
  frequency [ (3, oneofl edges); (1, int_range 0 hi) ]

(* every kind of operation, Undel and Unup included, valid on [d] *)
let gen_edge_op d =
  let open QCheck2.Gen in
  let n = Tdoc_ref.model_length d in
  let ins = map2 (fun p e -> Op.ins ~pr:1 p e) (gen_edge_pos ~ends:true n) gen_char in
  if n = 0 then ins
  else
    let cell_op =
      gen_edge_pos n >>= fun p ->
      let c = Tdoc_ref.cell d p in
      frequency
        ([ (2, return (Op.del p c.Tdoc.elt));
           (2, map (fun e -> Op.up ~tag:(fresh_tag 1) p c.Tdoc.elt e) gen_char) ]
        @ (if c.Tdoc.hidden > 0 then [ (2, return (Op.undel p c.Tdoc.elt)) ] else [])
        @
        match c.Tdoc.writes with
        | [] -> []
        | ws -> [ (2, oneofl ws >|= fun w -> Op.unup ~tag:w.Tdoc.wtag p w.Tdoc.value) ])
    in
    frequency [ (2, ins); (3, cell_op) ]

let gen_chunked_op_seq =
  let open QCheck2.Gen in
  gen_chunked_cells >>= fun cells ->
  int_range 0 40 >>= fun k ->
  let rec steps d acc k =
    if k = 0 then return (cells, List.rev acc)
    else gen_edge_op d >>= fun op -> steps (Tdoc_ref.apply d op) (op :: acc) (k - 1)
  in
  steps (Tdoc_ref.of_cells cells) [] k

(* the document of [cells] in full chunks of packed runs, as a decoded
   character state holds it: [Tdoc.of_cells] builds the array-run twin *)
let packed_of_cells cells =
  let elts =
    String.of_seq (List.to_seq (List.map (fun (c : char Tdoc.cell) -> c.Tdoc.elt) cells))
  in
  let overlay =
    List.concat
      (List.mapi
         (fun i (c : char Tdoc.cell) ->
           if c.Tdoc.writes = [] && c.Tdoc.hidden = 0 then []
           else [ (i, c.Tdoc.writes, c.Tdoc.hidden) ])
         cells)
  in
  match Tdoc.of_overlay (Tdoc.Chars elts) overlay with Ok d -> d | Error e -> failwith e

(* cells as elt/hide count/write count, without going through [Tdoc] *)
let pp_cells =
  Fmt.(list ~sep:nop (fun ppf (c : char Tdoc.cell) ->
      pf ppf "%c%d%d" c.Tdoc.elt c.Tdoc.hidden (List.length c.Tdoc.writes)))

let print_chunked_op_seq (cells, ops) =
  Format.asprintf "%a then @[%a@]" pp_cells cells Fmt.(list ~sep:semi pp_char_op) ops

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Run a qcheck property as an alcotest case. *)
let qtest ?(count = 1000) name gen print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen prop)
