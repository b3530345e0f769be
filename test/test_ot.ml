(* Tests for the OT substrate: operations, documents, transformation
   (TP1/TP2/inversion), logs, undo, and multi-site convergence of the
   controller's causal buffering and integration. *)

open Dce_ot
open Helpers

(* ----- Op ----- *)

let test_inverse_cancels =
  qtest "inverse cancels the operation (visible projection)" ~count:500
    QCheck2.Gen.(gen_tdoc >>= fun d -> gen_valid_op ~pr:1 d >>= fun o -> return (d, o))
    (fun (d, o) -> Format.asprintf "doc=%s op=%a" (show_tdoc d) pp_char_op o)
    (fun (doc, o) ->
      let doc' = Tdoc.apply doc o in
      Tdoc.equal_visible Char.equal doc (Tdoc.apply doc' (Op.inverse o)))

let op_unit_tests =
  [
    Alcotest.test_case "ins builds" `Quick (fun () ->
        Alcotest.check op_testable "ins" (Op.Ins { pos = 2; elt = 'x'; pr = 1 })
          (Op.ins ~pr:1 2 'x'));
    Alcotest.test_case "negative position rejected" `Quick (fun () ->
        Alcotest.check_raises "ins" (Invalid_argument "Op.ins: negative position")
          (fun () -> ignore (Op.ins (-1) 'x')));
    Alcotest.test_case "inverse of up retracts its write" `Quick (fun () ->
        let tag = { Op.stamp = 4; site = 3 } in
        Alcotest.check op_testable "inv" (Op.unup ~tag 1 'b')
          (Op.inverse (Op.up ~tag 1 'a' 'b'));
        Alcotest.check op_testable "inv inv re-adds" (Op.up ~tag 1 'b' 'b')
          (Op.inverse (Op.unup ~tag 1 'b')));
    Alcotest.test_case "inverse of ins hides, of del shows" `Quick (fun () ->
        Alcotest.check op_testable "ins" (Op.del 4 'z') (Op.inverse (Op.ins 4 'z'));
        Alcotest.check op_testable "del" (Op.undel 4 'z') (Op.inverse (Op.del 4 'z'));
        Alcotest.check op_testable "undel" (Op.del 4 'z') (Op.inverse (Op.undel 4 'z')));
    Alcotest.test_case "nop predicates" `Quick (fun () ->
        Alcotest.(check bool) "is_nop" true (Op.is_nop Op.Nop);
        Alcotest.(check bool) "pos none" true (Op.pos Op.Nop = None));
    Alcotest.test_case "with_stamp" `Quick (fun () ->
        (match Op.with_stamp ~site:7 ~stamp:9 (Op.ins 0 'a') with
         | Op.Ins { pr; _ } -> Alcotest.(check int) "ins pr" 7 pr
         | _ -> Alcotest.fail "ins expected");
        (match Op.with_stamp ~site:7 ~stamp:9 (Op.up 0 'a' 'b') with
         | Op.Up { tag; _ } ->
           Alcotest.(check int) "stamp" 9 tag.Op.stamp;
           Alcotest.(check int) "site" 7 tag.Op.site
         | _ -> Alcotest.fail "up expected");
        Alcotest.check op_testable "del unchanged" (Op.del 0 'a')
          (Op.with_stamp ~site:7 ~stamp:9 (Op.del 0 'a')));
  ]

(* ----- Tdoc ----- *)

let tdoc_unit_tests =
  [
    Alcotest.test_case "of_string / visible_string roundtrip" `Quick (fun () ->
        Alcotest.(check string) "roundtrip" "hello"
          (Tdoc.visible_string (Tdoc.of_string "hello")));
    Alcotest.test_case "del hides instead of removing" `Quick (fun () ->
        let d = Tdoc.apply (Tdoc.of_string "abc") (Op.del 1 'b') in
        Alcotest.(check string) "visible" "ac" (Tdoc.visible_string d);
        Alcotest.(check int) "model keeps the cell" 3 (Tdoc.model_length d);
        Alcotest.(check int) "hidden" 1 (Tdoc.cell d 1).Tdoc.hidden);
    Alcotest.test_case "undel restores" `Quick (fun () ->
        let d = Tdoc.apply (Tdoc.of_string "abc") (Op.del 1 'b') in
        let d = Tdoc.apply d (Op.undel 1 'b') in
        Alcotest.(check string) "visible" "abc" (Tdoc.visible_string d));
    Alcotest.test_case "stacked deletions need as many undels" `Quick (fun () ->
        let d = Tdoc.of_string "x" in
        let d = Tdoc.apply d (Op.del 0 'x') in
        let d = Tdoc.apply d (Op.del 0 'x') in
        let d = Tdoc.apply d (Op.undel 0 'x') in
        Alcotest.(check string) "still hidden" "" (Tdoc.visible_string d);
        let d = Tdoc.apply d (Op.undel 0 'x') in
        Alcotest.(check string) "restored" "x" (Tdoc.visible_string d));
    Alcotest.test_case "undel of a visible cell rejected" `Quick (fun () ->
        (try
           ignore (Tdoc.apply (Tdoc.of_string "a") (Op.undel 0 'a'));
           Alcotest.fail "expected Invalid_argument"
         with Invalid_argument _ -> ()));
    Alcotest.test_case "element expectation checked" `Quick (fun () ->
        (try
           ignore (Tdoc.apply (Tdoc.of_string "abc") (Op.del 1 'z'));
           Alcotest.fail "expected Edit_conflict"
         with Document.Edit_conflict _ -> ()));
    Alcotest.test_case "visible coordinates skip tombstones" `Quick (fun () ->
        let d = Tdoc.apply (Tdoc.of_string "abc") (Op.del 0 'a') in
        (* visible "bc"; visible pos 1 is 'c' at model pos 2 *)
        Alcotest.(check int) "model_of_visible" 2 (Tdoc.model_of_visible d 1);
        Alcotest.check op_testable "del_visible" (Op.del 2 'c') (Tdoc.del_visible d 1);
        let tag = { Op.stamp = 1; site = 9 } in
        Alcotest.check op_testable "up_visible" (Op.up ~tag 2 'c' 'X')
          (Tdoc.up_visible ~tag d 1 'X');
        Alcotest.(check int) "visible_of_model" 1 (Tdoc.visible_of_model d 2));
    Alcotest.test_case "insertion at the end lands after trailing cells" `Quick
      (fun () ->
        let d = Tdoc.apply (Tdoc.of_string "ab") (Op.del 1 'b') in
        Alcotest.check op_testable "append" (Op.ins ~pr:1 2 'z')
          (Tdoc.ins_visible ~pr:1 d 1 'z'));
    Alcotest.test_case "up rewrites content in place" `Quick (fun () ->
        let d = Tdoc.apply (Tdoc.of_string "abc") (Op.up 2 'c' 'C') in
        Alcotest.(check string) "visible" "abC" (Tdoc.visible_string d));
  ]

(* Boundary contracts of the coordinate translations: model_of_visible
   is strict on both ends; visible_of_model is strict on negatives and
   clamps past the model length (a transformed generation-context
   position may point past a shorter context's end). *)
let tdoc_boundary_tests =
  let expect_invalid name f =
    try
      ignore (f ());
      Alcotest.fail (name ^ ": expected Invalid_argument")
    with Invalid_argument _ -> ()
  in
  [
    Alcotest.test_case "model_of_visible rejects negatives and overshoot" `Quick
      (fun () ->
        let d = Tdoc.apply (Tdoc.of_string "abc") (Op.del 1 'b') in
        expect_invalid "negative" (fun () -> Tdoc.model_of_visible d (-1));
        Alcotest.(check int) "at visible_length" 3
          (Tdoc.model_of_visible d (Tdoc.visible_length d));
        expect_invalid "beyond" (fun () ->
            Tdoc.model_of_visible d (Tdoc.visible_length d + 1)));
    Alcotest.test_case "model_of_visible on an all-hidden document" `Quick (fun () ->
        let d = Tdoc.apply_all (Tdoc.of_string "ab") [ Op.del 0 'a'; Op.del 1 'b' ] in
        Alcotest.(check int) "visible empty" 0 (Tdoc.visible_length d);
        Alcotest.(check int) "0 maps to model end" 2 (Tdoc.model_of_visible d 0);
        expect_invalid "beyond" (fun () -> Tdoc.model_of_visible d 1));
    Alcotest.test_case "visible_of_model rejects negatives" `Quick (fun () ->
        let d = Tdoc.of_string "abc" in
        expect_invalid "negative" (fun () -> Tdoc.visible_of_model d (-1));
        expect_invalid "negative on empty" (fun () ->
            Tdoc.visible_of_model Tdoc.empty (-1)));
    Alcotest.test_case "visible_of_model clamps past the model length" `Quick
      (fun () ->
        let d = Tdoc.apply (Tdoc.of_string "abc") (Op.del 2 'c') in
        Alcotest.(check int) "at model_length" 2 (Tdoc.visible_of_model d 3);
        Alcotest.(check int) "one past" 2 (Tdoc.visible_of_model d 4);
        Alcotest.(check int) "far past" 2 (Tdoc.visible_of_model d 1000);
        Alcotest.(check int) "empty doc clamps to 0"
          0 (Tdoc.visible_of_model Tdoc.empty 5));
    Alcotest.test_case "visible_of_model at interior boundaries" `Quick (fun () ->
        let d = Tdoc.apply (Tdoc.of_string "abc") (Op.del 0 'a') in
        Alcotest.(check int) "0" 0 (Tdoc.visible_of_model d 0);
        Alcotest.(check int) "after tombstone" 0 (Tdoc.visible_of_model d 1);
        Alcotest.(check int) "after first visible" 1 (Tdoc.visible_of_model d 2);
        Alcotest.(check int) "whole model" 2 (Tdoc.visible_of_model d 3));
  ]

(* ----- the packed run's footprint ----- *)

(* Words per 100 model cells of a character document grown by
   insertions.  A chunk half full, the fewest cells a split leaves,
   costs a 32-byte string (6 words), its run (2), the chunk record (6,
   its dead mask included) and its tree node (7): 21 words for 32 cells,
   66 per 100.  Splits leave chunks about two thirds full on average,
   so the 2,000 random insertions below read 49.  Array runs cost
   33 + 2 + 6 + 7 words for 32 cells, 150 per 100, and read 135. *)
let packed_words_per_100_cells = 63

(* [d] grown by [n] seeded insertions at random positions, checked
   against the same insertions into a string *)
let grown_by_insertions n d =
  let rng = Random.State.make [| 2009 |] in
  let rec go d s k =
    if k = 0 then begin
      Alcotest.(check string) "content" s (Tdoc.visible_string d);
      d
    end
    else
      let pos = Random.State.int rng (String.length s + 1) in
      let c = Char.chr (97 + Random.State.int rng 26) in
      go (Tdoc.apply d (Op.ins pos c))
        (String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (String.length s - pos))
        (k - 1)
  in
  go d "" n

let words_per_100_cells d = Obj.reachable_words (Obj.repr d) * 100 / Tdoc.model_length d

let tdoc_memory_tests =
  [
    Alcotest.test_case "an empty character document packs from its first insertion" `Quick
      (fun () ->
        let decoded =
          let policy =
            Dce_core.Policy.make ~users:[ 0 ]
              Dce_core.[ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
          in
          let st =
            Dce_core.Controller.dump
              (Dce_core.Controller.create ~eq:Char.equal ~site:0 ~admin:0 ~policy
                 (Tdoc.of_string ""))
          in
          match Dce_wire.Proto.Char_proto.(decode_state (encode_state st)) with
          | Ok st -> st.Dce_core.Controller.st_doc
          | Error e -> Alcotest.fail e
        in
        List.iter
          (fun (what, d) ->
            let words = words_per_100_cells (grown_by_insertions 2_000 d) in
            if words > packed_words_per_100_cells then
              Alcotest.failf "%s: %d words per 100 cells, packed runs hold at most %d" what
                words packed_words_per_100_cells)
          [ ("of_string \"\"", Tdoc.of_string ""); ("decoded state", decoded) ];
        (* the bound tells the kinds apart: array runs grown alike exceed it *)
        Alcotest.(check bool) "array runs exceed the bound" true
          (words_per_100_cells (grown_by_insertions 2_000 Tdoc.empty)
          > packed_words_per_100_cells));
  ]

(* ----- Stree (the stat tree underneath Tdoc and Oplog) ----- *)

(* size-1 elements weighed by their low bit, as the log weighs its
   entries by tentativeness; the differential model is a plain list with
   the same measure *)
module Unit = Stree.Make (struct
  type 'a t = int

  let size _ = 1
  let weight x = x land 1
end)

(* runs of integers: an element spans its length and weighs its odd
   members, as a document chunk spans its cells and weighs the visible
   ones; the differential model is the flattened list *)
module Runs = Stree.Make (struct
  type 'a t = int list

  let size = List.length
  let weight l = List.length (List.filter (fun x -> x land 1 = 1) l)
end)

let stree_tests =
  let measure x = x land 1 in
  let gen_list = QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 100)) in
  let print_list l = Format.asprintf "%a" Fmt.(Dump.list int) l in
  [
    qtest "of_list/to_list roundtrip, length and weight" ~count:500 gen_list
      print_list (fun l ->
        let t = Unit.of_list l in
        Unit.to_list t = l
        && Unit.length t = List.length l
        && Unit.weight t = List.fold_left (fun a x -> a + measure x) 0 l);
    qtest "insert agrees with list insertion" ~count:500
      QCheck2.Gen.(
        gen_list >>= fun l ->
        int_range 0 (List.length l) >>= fun i ->
        int_range 0 100 >>= fun x -> return (l, i, x))
      (fun (l, i, x) -> Format.asprintf "%s i=%d x=%d" (print_list l) i x)
      (fun (l, i, x) ->
        let t = Unit.insert (Unit.of_list l) i x in
        let expect = List.filteri (fun j _ -> j < i) l @ (x :: List.filteri (fun j _ -> j >= i) l) in
        Unit.to_list t = expect && Unit.length t = List.length l + 1);
    qtest "set/update/get agree with the list model" ~count:500
      QCheck2.Gen.(
        gen_list >>= fun l ->
        if l = [] then return None
        else
          int_range 0 (List.length l - 1) >>= fun i ->
          int_range 0 100 >>= fun x -> return (Some (l, i, x)))
      (function
        | None -> "empty"
        | Some (l, i, x) -> Format.asprintf "%s i=%d x=%d" (print_list l) i x)
      (function
        | None -> true
        | Some (l, i, x) ->
          let t = Unit.of_list l in
          Unit.get t i = List.nth l i
          && Unit.to_list (Unit.set t i x)
             = List.mapi (fun j y -> if j = i then x else y) l
          && Unit.to_list (Unit.update t i (fun y _ -> y + 1))
             = List.mapi (fun j y -> if j = i then y + 1 else y) l);
    qtest "set_range agrees with element-wise set" ~count:500
      QCheck2.Gen.(
        gen_list >>= fun l ->
        let n = List.length l in
        int_range 0 n >>= fun pos ->
        int_range 0 (n - pos) >>= fun len ->
        list_size (return len) (int_range 0 100) >>= fun xs ->
        return (l, pos, xs))
      (fun (l, pos, xs) ->
        Format.asprintf "%s pos=%d xs=%s" (print_list l) pos (print_list xs))
      (fun (l, pos, xs) ->
        let t0 = Unit.of_list l in
        let t = Unit.set_range t0 ~pos (Array.of_list xs) in
        let expect =
          List.mapi
            (fun j y ->
              if j >= pos && j < pos + List.length xs then List.nth xs (j - pos)
              else y)
            l
        in
        Unit.to_list t = expect
        && Unit.weight t = List.fold_left (fun a x -> a + measure x) 0 expect
        && Unit.length t = List.length l);
    qtest "rank is the prefix measure sum; select inverts it" ~count:500 gen_list
      print_list (fun l ->
        let t = Unit.of_list l in
        let arr = Array.of_list l in
        let n = Array.length arr in
        let naive_rank i =
          let s = ref 0 in
          for j = 0 to i - 1 do
            s := !s + measure arr.(j)
          done;
          !s
        in
        List.for_all (fun i -> Unit.rank t i (fun _ _ -> 0) = naive_rank i) (List.init (n + 1) Fun.id)
        && List.for_all
             (fun k ->
               let i = Unit.select t k (fun _ _ -> 0) in
               Unit.rank t i (fun _ _ -> 0) = k && measure arr.(i) = 1)
             (List.init (Unit.weight t) Fun.id));
    qtest "fold_range is the sublist fold; fold_nonzero filters" ~count:500
      QCheck2.Gen.(
        gen_list >>= fun l ->
        let n = List.length l in
        int_range 0 n >>= fun pos ->
        int_range 0 (n - pos) >>= fun len -> return (l, pos, len))
      (fun (l, pos, len) -> Format.asprintf "%s [%d,+%d)" (print_list l) pos len)
      (fun (l, pos, len) ->
        let t = Unit.of_list l in
        List.rev (Unit.fold_range (fun acc x -> x :: acc) [] t ~pos ~len)
        = List.filteri (fun j _ -> j >= pos && j < pos + len) l
        && List.rev (Unit.fold_nonzero (fun acc x -> x :: acc) [] t)
           = List.filter (fun x -> measure x <> 0) l);
    qtest "prefix_length stops at the first failure" ~count:500 gen_list print_list
      (fun l ->
        let p x = x mod 3 <> 0 in
        let t = Unit.of_list l in
        let rec naive = function x :: rest when p x -> 1 + naive rest | _ -> 0 in
        Unit.prefix_length p t = naive l);
    qtest "suffix_length stops at the first failure from the right" ~count:500 gen_list
      print_list (fun l ->
        let p x = x mod 3 <> 0 in
        let t = Unit.of_list l in
        let rec naive = function x :: rest when p x -> 1 + naive rest | _ -> 0 in
        Unit.suffix_length p t = naive (List.rev l));
    qtest "random append/insert sequences stay balanced enough to agree"
      ~count:200
      QCheck2.Gen.(list_size (int_range 0 200) (pair (int_range 0 1000) (int_range 0 100)))
      (fun ops -> Format.asprintf "%d ops" (List.length ops))
      (fun ops ->
        let t, l =
          List.fold_left
            (fun (t, l) (at, x) ->
              let i = at mod (Unit.length t + 1) in
              ( Unit.insert t i x,
                List.filteri (fun j _ -> j < i) l
                @ (x :: List.filteri (fun j _ -> j >= i) l) ))
            (Unit.empty, []) ops
        in
        Unit.to_list t = l);
    qtest "sized elements: find, rank, select, update and insert agree with the flat list"
      ~count:500
      QCheck2.Gen.(
        list_size (int_range 1 12) (list_size (int_range 1 5) (int_range 0 9))
        >>= fun runs ->
        int_range 0 (List.length runs) >>= fun b ->
        int_range 0 (List.length (List.concat runs) - 1) >>= fun u ->
        return (runs, b, u))
      (fun (runs, b, u) ->
        Format.asprintf "%a b=%d u=%d" Fmt.(Dump.list (Dump.list int)) runs b u)
      (fun (runs, b, u) ->
        let t = Runs.of_list runs and flat = List.concat runs in
        let n = List.length flat in
        let odd x = x land 1 = 1 in
        let count_odd l = List.length (List.filter odd l) in
        let take k l = List.filteri (fun j _ -> j < k) l in
        let odds = List.filter (fun i -> odd (List.nth flat i)) (List.init n Fun.id) in
        let kth_odd_in v k = List.nth (List.filter (fun j -> odd (List.nth v j)) (List.init (List.length v) Fun.id)) k in
        let start = List.fold_left ( + ) 0 (List.map List.length (take b runs)) in
        let grown = Runs.update t u (fun v o -> take (o + 1) v @ (0 :: List.filteri (fun j _ -> j > o) v)) in
        Runs.length t = n
        && Runs.weight t = count_odd flat
        && List.for_all
             (fun i -> let v, o = Runs.find t i in List.nth v o = List.nth flat i)
             (List.init n Fun.id)
        && List.for_all
             (fun i -> Runs.rank t i (fun v o -> count_odd (take o v)) = count_odd (take i flat))
             (List.init (n + 1) Fun.id)
        && List.for_all
             (fun k -> Runs.select t k kth_odd_in = List.nth odds k)
             (List.init (List.length odds) Fun.id)
        && List.concat (Runs.to_list grown)
           = take (u + 1) flat @ (0 :: List.filteri (fun j _ -> j > u) flat)
        && Runs.length grown = n + 1
        && List.concat (Runs.to_list (Runs.insert t start [ 7 ]))
           = take start flat @ (7 :: List.filteri (fun j _ -> j >= start) flat)
        && List.for_all
             (fun i ->
               let _, o = Runs.find t i in
               o = 0
               || match Runs.insert t i [ 7 ] with
                  | _ -> false
                  | exception Invalid_argument _ -> true)
             (List.init n Fun.id));
  ]

(* ----- Tdoc vs the array-based reference oracle ----- *)

(* A start state and a random op/undo sequence: each step is a valid op
   on the current document, sometimes followed immediately by its
   inverse (the document-level undo primitive). *)
let gen_doc_op_seq =
  let open QCheck2.Gen in
  gen_tdoc >>= fun d0 ->
  int_range 0 25 >>= fun n ->
  let rec steps doc acc k =
    if k = 0 then return (d0, List.rev acc)
    else
      gen_valid_op ~pr:1 doc >>= fun op ->
      bool >>= fun undo_too ->
      let ops = if undo_too then [ op; Op.inverse op ] else [ op ] in
      steps (Tdoc.apply_all doc ops) (List.rev_append ops acc) (k - 1)
  in
  steps d0 [] n

let print_doc_op_seq (d0, ops) =
  Format.asprintf "%s then @[%a@]" (show_tdoc d0)
    Fmt.(list ~sep:semi pp_char_op)
    ops

let differential_tests =
  [
    qtest "tree and array documents agree on every projection" ~count:1000
      gen_doc_op_seq print_doc_op_seq (fun (d0, ops) ->
        let cells = Tdoc.model_list d0 in
        let tree = Tdoc.apply_all (Tdoc.of_cells cells) ops in
        let arr = Tdoc_ref.apply_all (Tdoc_ref.of_cells cells) ops in
        Tdoc.visible_string tree = Tdoc_ref.visible_string arr
        && Tdoc.model_list tree = Tdoc_ref.model_list arr
        && Tdoc.model_length tree = Tdoc_ref.model_length arr
        && Tdoc.visible_length tree = Tdoc_ref.visible_length arr);
    qtest "tree and array documents agree on coordinate translations" ~count:500
      gen_doc_op_seq print_doc_op_seq (fun (d0, ops) ->
        let cells = Tdoc.model_list d0 in
        let tree = Tdoc.apply_all (Tdoc.of_cells cells) ops in
        let arr = Tdoc_ref.apply_all (Tdoc_ref.of_cells cells) ops in
        let vl = Tdoc.visible_length tree and ml = Tdoc.model_length tree in
        List.for_all
          (fun v -> Tdoc.model_of_visible tree v = Tdoc_ref.model_of_visible arr v)
          (List.init (vl + 1) Fun.id)
        && List.for_all
             (fun m -> Tdoc.visible_of_model tree m = Tdoc_ref.visible_of_model arr m)
             (List.init (ml + 2) Fun.id))
      (* ml+1 exercises the documented clamp *);
    qtest "tree and array documents build identical visible-coordinate ops"
      ~count:500 gen_doc_op_seq print_doc_op_seq (fun (d0, ops) ->
        let cells = Tdoc.model_list d0 in
        let tree = Tdoc.apply_all (Tdoc.of_cells cells) ops in
        let arr = Tdoc_ref.apply_all (Tdoc_ref.of_cells cells) ops in
        let vl = Tdoc.visible_length tree in
        List.for_all
          (fun v ->
            Op.equal Char.equal
              (Tdoc.ins_visible ~pr:1 tree v 'q')
              (Tdoc_ref.ins_visible ~pr:1 arr v 'q'))
          (List.init (vl + 1) Fun.id)
        && List.for_all
             (fun v ->
               Op.equal Char.equal (Tdoc.del_visible tree v)
                 (Tdoc_ref.del_visible arr v)
               &&
               let tag = { Op.stamp = 999; site = 1 } in
               Op.equal Char.equal
                 (Tdoc.up_visible ~tag tree v 'Q')
                 (Tdoc_ref.up_visible ~tag arr v 'Q'))
             (List.init vl Fun.id));
  ]

(* ----- Tdoc vs the reference across chunk boundaries -----

   The chunk-edge documents and op sequences ([gen_chunked_cells],
   [gen_chunked_op_seq]) live in [Helpers]: the wire tests reuse them. *)

(* the generated cells and ops with every character mapped through [f],
   for documents of another element type *)
let lift_cell f (c : char Tdoc.cell) =
  {
    Tdoc.elt = f c.Tdoc.elt;
    writes =
      List.map (fun (w : char Tdoc.write) -> { w with Tdoc.value = f w.Tdoc.value }) c.Tdoc.writes;
    hidden = c.Tdoc.hidden;
  }

let lift_op f : char Op.t -> _ Op.t = function
  | Op.Ins { pos; elt; pr } -> Op.ins ~pr pos (f elt)
  | Op.Del { pos; elt } -> Op.del pos (f elt)
  | Op.Undel { pos; elt } -> Op.undel pos (f elt)
  | Op.Up { pos; before; after; tag } -> Op.up ~tag pos (f before) (f after)
  | Op.Unup { pos; value; tag } -> Op.unup ~tag pos (f value)
  | Op.Nop -> Op.Nop

(* every projection and translation of [tree] is [arr]'s; [lift] maps a
   character to the documents' element type *)
let agrees lift tree arr =
  let vl = Tdoc_ref.visible_length arr and ml = Tdoc_ref.model_length arr in
  let tag = { Op.stamp = 999_999; site = 1 } in
  Tdoc.visible_list tree = Tdoc_ref.visible_list arr
  && Tdoc.model_list tree = Tdoc_ref.model_list arr
  && Tdoc.model_length tree = ml
  && Tdoc.visible_length tree = vl
  && List.for_all (fun m -> Tdoc.cell tree m = Tdoc_ref.cell arr m) (List.init ml Fun.id)
  && List.for_all
       (fun m -> Tdoc.visible_of_model tree m = Tdoc_ref.visible_of_model arr m)
       (List.init (ml + 2) Fun.id)
  && List.for_all
       (fun v ->
         Tdoc.model_of_visible tree v = Tdoc_ref.model_of_visible arr v
         && Op.equal ( = ) (Tdoc.ins_visible ~pr:1 tree v (lift 'q'))
              (Tdoc_ref.ins_visible ~pr:1 arr v (lift 'q'))
         && (v = vl
            || Op.equal ( = ) (Tdoc.del_visible tree v) (Tdoc_ref.del_visible arr v)
               && Op.equal ( = ) (Tdoc.up_visible ~tag tree v (lift 'Q'))
                    (Tdoc_ref.up_visible ~tag arr v (lift 'Q'))))
       (List.init (vl + 1) Fun.id)

(* The chunk-edge properties over documents that [build] (named
   [built]) makes from the generated cells, each character mapped
   through [lift]; [prefix] names the run kind. *)
let chunk_tests_of ~prefix ~built lift build =
  let cells_of = List.map (lift_cell lift) and ops_of = List.map (lift_op lift) in
  [
    qtest (prefix ^ built ^ " then model_list is the identity across chunks") ~count:200
      gen_chunked_cells
      (Format.asprintf "%a" pp_cells)
      (fun cells ->
        let cells = cells_of cells in
        Tdoc.model_list (build cells) = cells);
    qtest (prefix ^ "chunked and array documents agree after every op at chunk edges")
      ~count:150 gen_chunked_op_seq print_chunked_op_seq (fun (cells, ops) ->
        let cells = cells_of cells in
        let _, _, ok =
          List.fold_left
            (fun (tree, arr, ok) op ->
              let tree = Tdoc.apply tree op and arr = Tdoc_ref.apply arr op in
              (tree, arr, ok && agrees lift tree arr))
            (build cells, Tdoc_ref.of_cells cells, true)
            (ops_of ops)
        in
        ok);
    qtest (prefix ^ "apply leaves every earlier version unchanged across chunk splits")
      ~count:200 gen_chunked_op_seq print_chunked_op_seq (fun (cells, ops) ->
        let cells = cells_of cells and ops = ops_of ops in
        let versions d0 apply =
          List.rev (List.fold_left (fun (ds : _ list) op -> apply (List.hd ds) op :: ds) [ d0 ] ops)
        in
        let trees = versions (build cells) Tdoc.apply in
        let arrs = versions (Tdoc_ref.of_cells cells) Tdoc_ref.apply in
        List.for_all2
          (fun tree arr -> Tdoc.model_list tree = Tdoc_ref.model_list arr)
          trees arrs);
  ]

(* ----- collapse: Tdoc vs the reference, with collapse steps -----

   A step is an edge op or a collapse keeping a random subset of the
   touched cells, each drawn on the reference's current state, so every
   op is legal after the collapses before it. *)

type step = Apply of char Op.t | Collapse of int array

let gen_collapse_step d =
  let open QCheck2.Gen in
  let touched =
    List.filter
      (fun i ->
        let c = Tdoc_ref.cell d i in
        c.Tdoc.writes <> [] || c.Tdoc.hidden <> 0)
      (List.init (Tdoc_ref.model_length d) Fun.id)
  in
  let keep =
    flatten_l (List.map (fun i -> map (fun b -> if b then [ i ] else []) bool) touched)
    >|= fun l -> Collapse (Array.of_list (List.concat l))
  in
  frequency [ (4, map (fun op -> Apply op) (gen_edge_op d)); (1, keep) ]

let gen_collapse_seq =
  let open QCheck2.Gen in
  gen_chunked_cells >>= fun cells ->
  int_range 1 40 >>= fun k ->
  let rec steps d acc k =
    if k = 0 then return (cells, List.rev acc)
    else
      gen_collapse_step d >>= fun step ->
      let d =
        match step with
        | Apply op -> Tdoc_ref.apply d op
        | Collapse keep -> Tdoc_ref.collapse ~keep d
      in
      steps d (step :: acc) (k - 1)
  in
  steps (Tdoc_ref.of_cells cells) [] k

let print_collapse_seq (cells, steps) =
  Format.asprintf "%a then @[%a@]" pp_cells cells
    Fmt.(
      list ~sep:semi (fun ppf -> function
        | Apply op -> pp_char_op ppf op
        | Collapse keep -> pf ppf "collapse keep [%a]" (array ~sep:comma int) keep))
    steps

(* [build] and [lift] as for [chunk_tests_of] *)
let collapse_tests_of ~prefix lift build =
  [
    qtest (prefix ^ "collapse steps: chunked and array documents agree cell for cell")
      ~count:100 gen_collapse_seq print_collapse_seq (fun (cells, steps) ->
        let cells = List.map (lift_cell lift) cells in
        let _, _, ok =
          List.fold_left
            (fun (tree, arr, ok) step ->
              let tree', arr' =
                match step with
                | Apply op ->
                  let op = lift_op lift op in
                  (Tdoc.apply tree op, Tdoc_ref.apply arr op)
                | Collapse keep -> (Tdoc.collapse ~keep tree, Tdoc_ref.collapse ~keep arr)
              in
              (* the earlier version is unchanged by the step *)
              let kept = Tdoc.model_list tree = Tdoc_ref.model_list arr in
              (tree', arr', ok && kept && agrees lift tree' arr'))
            (build cells, Tdoc_ref.of_cells cells, true)
            steps
        in
        ok);
  ]

let collapse_tests =
  collapse_tests_of ~prefix:"packed: " Fun.id packed_of_cells
  @ collapse_tests_of ~prefix:"" (String.make 1) Tdoc.of_cells
  @ [
      Alcotest.test_case "collapse repacks a split document and keeps its text" `Quick
        (fun () ->
          let d = grown_by_insertions 2_000 (Tdoc.of_string "") in
          let d' = Tdoc.collapse ~keep:[||] d in
          Alcotest.(check string) "text" (Tdoc.visible_string d) (Tdoc.visible_string d');
          let fresh = Tdoc.of_string (String.make (Tdoc.model_length d) 'a') in
          let words x = Obj.reachable_words (Obj.repr x) in
          (* split halves fill chunks about two thirds; repacked ones
             are full but for the last two *)
          Alcotest.(check bool)
            (Printf.sprintf "%d words, fresh %d" (words d') (words fresh))
            true
            (words d' * 100 <= words fresh * 105 && words d > words d'));
      Alcotest.test_case "collapse keeps what it is told to and drops the rest" `Quick
        (fun () ->
          let d = Tdoc.of_string "abcd" in
          let up pos tag after =
            Op.up ~tag:{ Op.stamp = tag; site = 1 } pos (Tdoc.content (Tdoc.cell d pos)) after
          in
          let d = Tdoc.apply_all d [ up 0 1 'x'; Op.del 1 'b'; Op.del 1 'b'; up 3 2 'y' ] in
          let d' = Tdoc.collapse ~keep:[| 3 |] d in
          let cell = Tdoc.cell d' in
          Alcotest.(check char) "written cell takes its content" 'x' (cell 0).Tdoc.elt;
          Alcotest.(check bool) "and loses its writes" true ((cell 0).Tdoc.writes = []);
          Alcotest.(check int) "a twice hidden cell keeps one hide" 1 (cell 1).Tdoc.hidden;
          Alcotest.(check int) "a kept cell keeps its writes" 1
            (List.length (cell 3).Tdoc.writes);
          Alcotest.(check bool) "equal modulo collapse" true
            (Tdoc.equal_modulo_collapse Char.equal d d');
          Alcotest.(check bool) "not equal as models" false (Tdoc.equal_model Char.equal d d');
          Alcotest.(check bool) "nothing to collapse, nothing to repack: the same value"
            true
            (Tdoc.collapse ~keep:[| 3 |] d' == d'));
    ]

(* the comparison modulo collapse still tells apart what no collapse
   can explain *)
let modulo_collapse_tests =
  let w stamp value = { Tdoc.wtag = { Op.stamp; site = 1 }; value; retracted = 0 } in
  let cell ?(writes = []) ?(hidden = 0) elt = { Tdoc.elt; writes; hidden } in
  let differ what a b =
    Alcotest.test_case ("modulo collapse flags " ^ what) `Quick (fun () ->
        Alcotest.(check bool) "cells" false (Tdoc.equal_cell_modulo_collapse Char.equal a b);
        Alcotest.(check bool) "documents" false
          (Tdoc.equal_modulo_collapse Char.equal
             (Tdoc.of_cells [ cell 'p'; a ])
             (Tdoc.of_cells [ cell 'p'; b ])))
  in
  [
    differ "a visibility difference" (cell 'a') (cell ~hidden:1 'a');
    differ "a content difference" (cell ~writes:[ w 5 'x' ] 'a') (cell 'a');
    differ "two overlay cells with different writes"
      (cell ~writes:[ w 5 'x'; w 3 'y' ] 'a')
      (cell ~writes:[ w 5 'x'; w 3 'z' ] 'a');
    differ "different hide counts above one" (cell ~hidden:2 'a') (cell ~hidden:3 'a');
    Alcotest.test_case "modulo collapse flags different model lengths" `Quick (fun () ->
        Alcotest.(check bool) "documents" false
          (Tdoc.equal_modulo_collapse Char.equal (Tdoc.of_string "ab") (Tdoc.of_string "abc")));
    Alcotest.test_case "a cell collapsed and then written equals its uncollapsed twin"
      `Quick (fun () ->
        Alcotest.(check bool) "cells" true
          (Tdoc.equal_cell_modulo_collapse Char.equal
             (cell ~writes:[ w 7 'q' ] 'x')
             (cell ~writes:[ w 7 'q'; w 5 'x' ] 'a'));
        Alcotest.(check bool) "dead" true
          (Tdoc.equal_cell_modulo_collapse Char.equal (cell ~hidden:1 'x')
             (cell ~writes:[ w 5 'x' ] ~hidden:2 'a')));
  ]

(* Packed runs, as the editors' character documents are built, and
   array runs over another element type (one-character strings), the
   only kind such a document has. *)
let chunk_tests =
  chunk_tests_of ~prefix:"packed: " ~built:"of_overlay" Fun.id packed_of_cells
  @ chunk_tests_of ~prefix:"" ~built:"of_cells" (String.make 1) Tdoc.of_cells

(* ----- plain Document (positional; used by baselines) ----- *)

let doc_unit_tests =
  let open Document in
  let string_doc = Str.of_string and doc_string = Str.to_string in
  [
    Alcotest.test_case "apply ins/del/up" `Quick (fun () ->
        let d = string_doc "abc" in
        Alcotest.(check string) "ins" "axbc" (doc_string (Str.apply d (Op.ins 1 'x')));
        Alcotest.(check string) "del" "ac" (doc_string (Str.apply d (Op.del 1 'b')));
        Alcotest.(check string) "up" "aXc" (doc_string (Str.apply d (Op.up 1 'b' 'X')));
        Alcotest.(check string) "nop" "abc" (doc_string (Str.apply d Op.Nop)));
    Alcotest.test_case "del checks expected element" `Quick (fun () ->
        (try
           ignore (Str.apply (string_doc "abc") (Op.del 1 'z'));
           Alcotest.fail "expected Edit_conflict"
         with Edit_conflict _ -> ()));
    Alcotest.test_case "out of bounds" `Quick (fun () ->
        (try
           ignore (Str.apply (string_doc "ab") (Op.ins 5 'x'));
           Alcotest.fail "expected Invalid_argument"
         with Invalid_argument _ -> ()));
  ]

(* ----- Transform ----- *)

(* TP1: both execution orders of two concurrent operations converge (on
   the full model, not just the visible projection). *)
let test_tp1 =
  qtest "TP1 convergence" ~count:5000 gen_doc_two_ops print_doc_two_ops
    (fun (doc, o1, o2) ->
      let left = Tdoc.apply (Tdoc.apply doc o1) (Transform.it o2 o1) in
      let right = Tdoc.apply (Tdoc.apply doc o2) (Transform.it o1 o2) in
      Tdoc.equal_model Char.equal left right)

(* TP2: transforming against the two equivalent orders of a concurrent
   pair yields the same operation.  This is the property positional OT
   cannot have and the tombstone rules do. *)
let test_tp2 =
  qtest "TP2" ~count:5000 gen_doc_three_ops print_doc_three_ops
    (fun (_, o1, o2, o3) ->
      let via12 = Transform.it_list o3 [ o1; Transform.it o2 o1 ] in
      let via21 = Transform.it_list o3 [ o2; Transform.it o1 o2 ] in
      Op.equal Char.equal via12 via21)

(* Three concurrent operations converge under all six integration
   orders. *)
let test_three_way_convergence =
  qtest "3 concurrent ops converge in all orders" ~count:3000 gen_doc_three_ops
    print_doc_three_ops
    (fun (doc, o1, o2, o3) ->
      let integrate doc ops =
        List.fold_left
          (fun (doc, done_) o ->
            let o' = Transform.it_list o done_ in
            (Tdoc.apply doc o', done_ @ [ o' ]))
          (doc, []) ops
        |> fst
      in
      let perms =
        [ [o1;o2;o3]; [o1;o3;o2]; [o2;o1;o3]; [o2;o3;o1]; [o3;o1;o2]; [o3;o2;o1] ]
      in
      match List.map (integrate doc) perms with
      | ref :: rest -> List.for_all (Tdoc.equal_model Char.equal ref) rest
      | [] -> assert false)

let test_et_inverts_it =
  qtest "et inverts it on concurrent pairs" ~count:5000 gen_doc_two_ops
    print_doc_two_ops
    (fun (_, o1, o2) ->
      let o1' = Transform.it o1 o2 in
      Op.equal Char.equal o1' (Transform.it (Transform.et o1' o2) o2))

(* Transposition as used by Canonize: a deletion/update/undeletion
   followed by an insertion can always be swapped without changing the
   combined effect. *)
let gen_canonize_pair =
  let open QCheck2.Gen in
  let rec nonempty () =
    gen_tdoc >>= fun doc ->
    if Tdoc.model_length doc = 0 then nonempty () else return doc
  in
  nonempty () >>= fun doc ->
  gen_valid_non_ins_op ~pr:1 doc >>= fun first ->
  let doc' = Tdoc.apply doc first in
  map2 (fun p e -> (doc, first, Op.ins ~pr:2 p e))
    (int_range 0 (Tdoc.model_length doc'))
    gen_char

let test_canonize_transpose =
  qtest "canonize transposition preserves effect" ~count:5000 gen_canonize_pair
    (fun (doc, first, ins) ->
      Format.asprintf "doc=%s first=%a then=%a" (show_tdoc doc) pp_char_op first
        pp_char_op ins)
    (fun (doc, first, ins) ->
      let direct = Tdoc.apply (Tdoc.apply doc first) ins in
      let ins' = Transform.et ins first in
      let first' = Transform.it first ins' in
      let swapped = Tdoc.apply (Tdoc.apply doc ins') first' in
      Tdoc.equal_model Char.equal direct swapped)

let transform_unit_tests =
  [
    Alcotest.test_case "paper Fig.1: Del shifts after concurrent Ins" `Quick (fun () ->
        (* "efecte": site 1 inserts 'f' at (0-based) 1, site 2 deletes the
           trailing 'e' at 5.  IT(Del, Ins) = Del 6; both sides see
           "effect". *)
        let doc = Tdoc.of_string "efecte" in
        let o1 = Op.ins ~pr:1 1 'f' in
        let o2 = Op.del 5 'e' in
        Alcotest.check op_testable "transformed del" (Op.del 6 'e') (Transform.it o2 o1);
        let s1 = Tdoc.apply (Tdoc.apply doc o1) (Transform.it o2 o1) in
        let s2 = Tdoc.apply (Tdoc.apply doc o2) (Transform.it o1 o2) in
        Alcotest.(check string) "site1" "effect" (Tdoc.visible_string s1);
        Alcotest.(check string) "site2" "effect" (Tdoc.visible_string s2));
    Alcotest.test_case "ins/ins tie broken by priority" `Quick (fun () ->
        let hi = Op.ins ~pr:2 3 'a' and lo = Op.ins ~pr:1 3 'b' in
        Alcotest.check op_testable "high shifts" (Op.ins ~pr:2 4 'a') (Transform.it hi lo);
        Alcotest.check op_testable "low stays" lo (Transform.it lo hi));
    Alcotest.test_case "concurrent del/del of one element stack" `Quick (fun () ->
        let d = Op.del 2 'x' in
        Alcotest.check op_testable "unchanged" d (Transform.it d d));
    Alcotest.test_case "ins unaffected by concurrent del" `Quick (fun () ->
        let i = Op.ins ~pr:1 3 'q' in
        Alcotest.check op_testable "same" i (Transform.it i (Op.del 1 'x'));
        Alcotest.check op_testable "same" i (Transform.it i (Op.del 3 'x')));
    Alcotest.test_case "up/up conflict: greatest tag wins in either order" `Quick
      (fun () ->
        let w = Op.up ~tag:{ Op.stamp = 1; site = 2 } 1 'x' 'a' in
        let l = Op.up ~tag:{ Op.stamp = 1; site = 1 } 1 'x' 'b' in
        (* transformation leaves both unchanged; the register resolves *)
        Alcotest.check op_testable "w" w (Transform.it w l);
        Alcotest.check op_testable "l" l (Transform.it l w);
        let d = Tdoc.of_string "yxz" in
        let one = Tdoc.apply (Tdoc.apply d w) l in
        let other = Tdoc.apply (Tdoc.apply d l) w in
        Alcotest.(check string) "converge" "yaz" (Tdoc.visible_string one);
        Alcotest.(check bool) "same model" true (Tdoc.equal_model Char.equal one other));
    Alcotest.test_case "later write beats earlier write causally" `Quick (fun () ->
        (* a sequential overwrite from a site with a smaller id still
           wins, because its Lamport stamp is larger *)
        let d = Tdoc.of_string "x" in
        let d = Tdoc.apply d (Op.up ~tag:{ Op.stamp = 5; site = 9 } 0 'x' 'K') in
        let d = Tdoc.apply d (Op.up ~tag:{ Op.stamp = 6; site = 1 } 0 'K' 'T') in
        Alcotest.(check string) "latest wins" "T" (Tdoc.visible_string d));
    Alcotest.test_case "retracting the winning write reveals the loser" `Quick
      (fun () ->
        let wtag = { Op.stamp = 1; site = 2 } and ltag = { Op.stamp = 1; site = 1 } in
        let d = Tdoc.of_string "x" in
        let d = Tdoc.apply d (Op.up ~tag:ltag 0 'x' 'K') in
        let d = Tdoc.apply d (Op.up ~tag:wtag 0 'x' 'T') in
        Alcotest.(check string) "winner shown" "T" (Tdoc.visible_string d);
        let d = Tdoc.apply d (Op.unup ~tag:wtag 0 'T') in
        Alcotest.(check string) "loser revealed" "K" (Tdoc.visible_string d);
        let d = Tdoc.apply d (Op.unup ~tag:ltag 0 'K') in
        Alcotest.(check string) "initial revealed" "x" (Tdoc.visible_string d));
    Alcotest.test_case "del of a concurrently updated element still applies" `Quick
      (fun () ->
        let del = Op.del 1 'x' in
        Alcotest.check op_testable "unchanged" del
          (Transform.it del (Op.up ~tag:{ Op.stamp = 1; site = 2 } 1 'x' 'y'));
        (* the history check accepts the stale expected element *)
        let d = Tdoc.apply (Tdoc.of_string "axc")
            (Op.up ~tag:{ Op.stamp = 1; site = 2 } 1 'x' 'y') in
        let d = Tdoc.apply d del in
        Alcotest.(check string) "hidden" "ac" (Tdoc.visible_string d));
    Alcotest.test_case "it against nop is identity" `Quick (fun () ->
        let o = Op.ins 2 'q' in
        Alcotest.check op_testable "id" o (Transform.it o Op.Nop);
        Alcotest.check op_testable "nop" Op.Nop (Transform.it Op.Nop o));
    Alcotest.test_case "undel transforms like del" `Quick (fun () ->
        Alcotest.check op_testable "shifted by ins" (Op.undel 4 'u')
          (Transform.it (Op.undel 3 'u') (Op.ins ~pr:1 2 'z'));
        Alcotest.check op_testable "unshifted" (Op.undel 1 'u')
          (Transform.it (Op.undel 1 'u') (Op.ins ~pr:1 2 'z')));
  ]

(* ----- Vclock ----- *)

let vclock_tests =
  let open Vclock in
  [
    Alcotest.test_case "tick and get" `Quick (fun () ->
        let c = tick (tick empty 1) 1 in
        Alcotest.(check int) "site1" 2 (get c 1);
        Alcotest.(check int) "site2" 0 (get c 2));
    Alcotest.test_case "leq and concurrency" `Quick (fun () ->
        let a = of_list [ (1, 2) ] and b = of_list [ (1, 2); (2, 1) ] in
        Alcotest.(check bool) "a<=b" true (leq a b);
        Alcotest.(check bool) "b<=a" false (leq b a);
        let c = of_list [ (2, 3) ] in
        Alcotest.(check bool) "a||c" true (concurrent a c));
    Alcotest.test_case "merge is pointwise max" `Quick (fun () ->
        let a = of_list [ (1, 2); (2, 5) ] and b = of_list [ (1, 4); (3, 1) ] in
        Alcotest.(check (list (pair int int)))
          "merged"
          [ (1, 4); (2, 5); (3, 1) ]
          (to_list (merge a b)));
    Alcotest.test_case "empty leq everything" `Quick (fun () ->
        Alcotest.(check bool) "empty" true (leq empty (of_list [ (9, 9) ])));
    Alcotest.test_case "dominates_event" `Quick (fun () ->
        let c = of_list [ (1, 3) ] in
        Alcotest.(check bool) "covered" true (dominates_event c ~site:1 ~count:3);
        Alcotest.(check bool) "not covered" false (dominates_event c ~site:1 ~count:4);
        Alcotest.(check bool) "zero" true (dominates_event c ~site:7 ~count:0));
  ]

(* ----- Cursor ----- *)

let cursor_tests =
  [
    Alcotest.test_case "position shifts in visible coordinates" `Quick (fun () ->
        let d = Tdoc.of_string "abcdef" in
        Alcotest.(check int) "ins before" 4 (Cursor.transform_position d 3 (Op.ins 1 'x'));
        Alcotest.(check int) "ins at (right bias)" 4
          (Cursor.transform_position d 3 (Op.ins 3 'x'));
        Alcotest.(check int) "ins at (left bias)" 3
          (Cursor.transform_position_left_biased d 3 (Op.ins 3 'x'));
        Alcotest.(check int) "del before" 2
          (Cursor.transform_position d 3 (Op.del 1 'b'));
        Alcotest.(check int) "del after" 3 (Cursor.transform_position d 3 (Op.del 5 'f'));
        Alcotest.(check int) "up" 3 (Cursor.transform_position d 3 (Op.up 3 'd' 'D')));
    Alcotest.test_case "tombstones do not move cursors" `Quick (fun () ->
        (* "a(b)cdef": model pos 1 hidden; visible "acdef" *)
        let d = Tdoc.apply (Tdoc.of_string "abcdef") (Op.del 1 'b') in
        (* hiding the tombstone again moves nothing *)
        Alcotest.(check int) "stacked hide" 3
          (Cursor.transform_position d 3 (Op.del 1 'b'));
        (* a deletion beyond the tombstone maps to its visible slot *)
        Alcotest.(check int) "del maps through tombstone" 2
          (Cursor.transform_position d 3 (Op.del 2 'c'));
        (* revealing the tombstone inserts a visible element at slot 1 *)
        Alcotest.(check int) "undel reveals" 4
          (Cursor.transform_position d 3 (Op.undel 1 'b')));
    Alcotest.test_case "selection keeps orientation" `Quick (fun () ->
        let d = Tdoc.of_string "abcdef" in
        let s = { Cursor.anchor = 2; focus = 5 } in
        let s' = Cursor.transform_selection d s (Op.ins 3 'x') in
        Alcotest.(check int) "anchor" 2 s'.Cursor.anchor;
        Alcotest.(check int) "focus" 6 s'.Cursor.focus);
    Alcotest.test_case "transform_through folds with the evolving document" `Quick
      (fun () ->
        (* Ins at 0 pushes the cursor to 4; the deletion behind it (model
           position 6 after the insert) leaves it alone *)
        let d = Tdoc.of_string "abcdef" in
        Alcotest.(check int) "through" 4
          (Cursor.transform_through d 3 [ Op.ins 0 'a'; Op.del 6 'f' ]));
  ]

(* ----- Multi-site convergence through the controller -----

   Sites 1..n under a grant-all policy, with the administrator (site 0)
   outside them: nothing is ever validated, so these cases exercise the
   controller's causal buffering and integration alone. *)

module C = Dce_core.Controller

type net = {
  mutable sites : char C.t array;
  mutable in_flight : (int * char C.message) list; (* destination, message *)
}

let mk_site ~sites i init =
  let policy =
    Dce_core.(
      Policy.make
        ~users:(List.init sites (fun j -> j + 1))
        [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ])
  in
  C.create ~eq:Char.equal ~site:i ~admin:0 ~policy (Tdoc.of_string init)

let mk_net n init =
  { sites = Array.init n (fun i -> mk_site ~sites:n (i + 1) init); in_flight = [] }

let generate c op =
  match C.generate c op with
  | c, C.Accepted m -> (c, m)
  | _, C.Denied reason -> failwith ("denied: " ^ reason)

let receive c m = fst (C.receive c m)

let net_generate net i op =
  let c, m = generate net.sites.(i) op in
  net.sites.(i) <- c;
  for j = 0 to Array.length net.sites - 1 do
    if j <> i then net.in_flight <- (j, m) :: net.in_flight
  done

let net_deliver_nth net k =
  let rec take i acc = function
    | [] -> None
    | m :: rest when i = 0 -> Some (m, List.rev_append acc rest)
    | m :: rest -> take (i - 1) (m :: acc) rest
  in
  match take k [] net.in_flight with
  | None -> ()
  | Some ((dest, m), rest) ->
    net.in_flight <- rest;
    net.sites.(dest) <- receive net.sites.(dest) m

let net_flush net =
  while net.in_flight <> [] do
    net_deliver_nth net 0
  done

let net_converged net =
  let d0 = C.document net.sites.(0) in
  Array.for_all (fun s -> Tdoc.equal_model Char.equal d0 (C.document s)) net.sites
  && Array.for_all (fun s -> C.pending_coop s = 0) net.sites

(* Drive a random interleaving: the integer stream decides, at each step,
   whether to generate a fresh local op at a random site (in visible
   coordinates, as a user would) or deliver a random in-flight message. *)
let run_random_session ~sites ~ops_budget stream init =
  let net = mk_net sites init in
  let budget = ref ops_budget in
  let stream = ref stream in
  let next () =
    match !stream with
    | [] -> 0
    | x :: rest ->
      stream := rest;
      abs x
  in
  let step () =
    let can_gen = !budget > 0 in
    let can_deliver = net.in_flight <> [] in
    match (can_gen, can_deliver) with
    | false, false -> false
    | _ ->
      let gen_now = can_gen && ((not can_deliver) || next () mod 2 = 0) in
      if gen_now then begin
        let i = next () mod sites in
        let doc = C.document net.sites.(i) in
        let n = Tdoc.visible_length doc in
        let op =
          match (if n = 0 then 0 else next () mod 3) with
          | 0 -> Tdoc.ins_visible doc (next () mod (n + 1)) (Char.chr (97 + (next () mod 26)))
          | 1 -> Tdoc.del_visible doc (next () mod n)
          | _ -> Tdoc.up_visible doc (next () mod n) (Char.chr (65 + (next () mod 26)))
        in
        net_generate net i op;
        decr budget;
        true
      end
      else begin
        net_deliver_nth net (next () mod List.length net.in_flight);
        true
      end
  in
  while step () do
    ()
  done;
  net_flush net;
  net

let test_engine_convergence sites =
  qtest
    (Printf.sprintf "%d-site random sessions converge" sites)
    ~count:(if sites <= 2 then 800 else 500)
    QCheck2.Gen.(
      pair
        (string_size ~gen:gen_char (int_range 0 8))
        (list_size (int_range 20 200) (int_range 0 1_000_000)))
    (fun (init, stream) ->
      Printf.sprintf "init=%S stream=[%s]" init
        (String.concat ";" (List.map string_of_int stream)))
    (fun (init, stream) ->
      let net = run_random_session ~sites ~ops_budget:10 stream init in
      net_converged net)

let engine_unit_tests =
  [
    Alcotest.test_case "two sites, figure-1 exchange" `Quick (fun () ->
        let net = mk_net 2 "efecte" in
        net_generate net 0 (Op.ins 1 'f');
        net_generate net 1 (Op.del 5 'e');
        net_flush net;
        Alcotest.(check bool) "converged" true (net_converged net);
        Alcotest.(check string) "effect" "effect"
          (Tdoc.visible_string (C.document net.sites.(0))));
    Alcotest.test_case "duplicate delivery ignored" `Quick (fun () ->
        let a = mk_site ~sites:2 1 "ab" and b = mk_site ~sites:2 2 "ab" in
        let _, m = generate a (Op.ins 0 'x') in
        let b = receive (receive b m) m in
        Alcotest.(check string) "applied once" "xab"
          (Tdoc.visible_string (C.document b)));
    Alcotest.test_case "out-of-order delivery buffers" `Quick (fun () ->
        let a = mk_site ~sites:2 1 "" and b = mk_site ~sites:2 2 "" in
        let a, m1 = generate a (Op.ins 0 'x') in
        let a, m2 = generate a (Op.ins 1 'y') in
        let b = receive b m2 in
        Alcotest.(check int) "buffered" 1 (C.pending_coop b);
        Alcotest.(check string) "not applied" "" (Tdoc.visible_string (C.document b));
        let b = receive b m1 in
        Alcotest.(check int) "drained" 0 (C.pending_coop b);
        Alcotest.(check string) "both applied" "xy" (Tdoc.visible_string (C.document b));
        Alcotest.(check string) "a" "xy" (Tdoc.visible_string (C.document a)));
    Alcotest.test_case "concurrent deletes of one element converge" `Quick (fun () ->
        let net = mk_net 3 "abc" in
        net_generate net 0 (Op.del 1 'b');
        net_generate net 1 (Op.del 1 'b');
        net_generate net 2 (Op.ins 3 'd');
        net_flush net;
        Alcotest.(check bool) "converged" true (net_converged net);
        Alcotest.(check string) "result" "acd"
          (Tdoc.visible_string (C.document net.sites.(0))));
  ]

(* ----- Oplog ----- *)

let mk_req ?(site = 1) ?(serial = 1) ?(v = 0) ?(flag = Request.Valid) ~ctx op =
  Request.make ~site ~serial ~op ~ctx ~policy_version:v ~flag ()

let oplog_tests =
  [
    Alcotest.test_case "append_local keeps canonical form" `Quick (fun () ->
        let h = Oplog.empty in
        let h = Oplog.append_local (mk_req ~serial:1 ~ctx:Vclock.empty (Op.ins 0 'a')) h in
        let h =
          Oplog.append_local
            (mk_req ~serial:2 ~ctx:(Vclock.of_list [ (1, 1) ]) (Op.del 0 'a'))
            h
        in
        let h =
          Oplog.append_local
            (mk_req ~serial:3 ~ctx:(Vclock.of_list [ (1, 2) ]) (Op.ins 1 'b'))
            h
        in
        Alcotest.(check bool) "canonical" true (Oplog.is_canonical h);
        Alcotest.(check int) "length" 3 (Oplog.length h));
    Alcotest.test_case "replaying a canonized local log reproduces the doc" `Quick
      (fun () ->
        let doc0 = Tdoc.of_string "hello" in
        let shapes = [ `Del 0; `Ins (0, 'H'); `Del 3; `Ins (4, 'O'); `Ins (5, '!') ] in
        let _, h, doc =
          List.fold_left
            (fun (i, h, doc) shape ->
              let op =
                match shape with
                | `Del v -> Tdoc.del_visible doc v
                | `Ins (v, c) -> Tdoc.ins_visible doc v c
              in
              let ctx = Vclock.of_list [ (1, i) ] in
              let q = mk_req ~serial:(i + 1) ~ctx op in
              (i + 1, Oplog.append_local q h, Tdoc.apply doc op))
            (0, Oplog.empty, doc0) shapes
        in
        let replayed = Tdoc.apply_all doc0 (Oplog.ops h) in
        Alcotest.check tdoc_testable "replay" doc replayed);
    Alcotest.test_case "undo of the last request restores the visible state" `Quick
      (fun () ->
        let doc0 = Tdoc.of_string "abc" in
        let q = mk_req ~serial:1 ~flag:Request.Tentative ~ctx:Vclock.empty (Op.ins 1 'x') in
        let h = Oplog.append_local q Oplog.empty in
        let doc1 = Tdoc.apply doc0 q.Request.op in
        (match Oplog.undo ~cancel_version:1 q.Request.id h with
         | None -> Alcotest.fail "undo failed"
         | Some (op, h') ->
           Alcotest.check tdoc_visible_testable "restored" doc0 (Tdoc.apply doc1 op);
           Alcotest.(check bool) "flagged invalid" true
             (match Oplog.find q.Request.id h' with
              | Some r -> r.Request.flag = Request.Invalid
              | None -> false);
           Alcotest.(check bool) "second undo refused" true
             (Oplog.undo ~cancel_version:1 q.Request.id h' = None)));
    Alcotest.test_case "undo in the middle cancels only that request" `Quick (fun () ->
        (* site 1 types "abc" by three inserts, then the middle insert is
           undone: "ac" remains, and replaying the log agrees. *)
        let doc0 = Tdoc.empty in
        let ops = [ Op.ins 0 'a'; Op.ins 1 'b'; Op.ins 2 'c' ] in
        let _, h, doc =
          List.fold_left
            (fun (i, h, doc) op ->
              let ctx = Vclock.of_list [ (1, i) ] in
              let q = mk_req ~serial:(i + 1) ~flag:Request.Tentative ~ctx op in
              (i + 1, Oplog.append_local q h, Tdoc.apply doc op))
            (0, Oplog.empty, doc0) ops
        in
        match Oplog.undo ~cancel_version:1 { Request.site = 1; serial = 2 } h with
        | None -> Alcotest.fail "undo failed"
        | Some (op, h') ->
          let doc' = Tdoc.apply doc op in
          Alcotest.(check string) "b hidden" "ac" (Tdoc.visible_string doc');
          Alcotest.check tdoc_testable "replay agrees" doc'
            (Tdoc.apply_all doc0 (Oplog.ops h')));
    Alcotest.test_case "append_rejected has no visible effect" `Quick (fun () ->
        (* a remote request is denied: it enters the log as tombstones *)
        let doc0 = Tdoc.of_string "abc" in
        let q = mk_req ~site:2 ~serial:1 ~flag:Request.Tentative ~ctx:Vclock.empty
            (Op.ins 1 'z')
        in
        let (op1, op2), h = Oplog.append_rejected ~cancel_version:1 q Oplog.empty in
        let doc = Tdoc.apply (Tdoc.apply doc0 op1) op2 in
        Alcotest.(check string) "visible unchanged" "abc" (Tdoc.visible_string doc);
        Alcotest.(check int) "model grew" 4 (Tdoc.model_length doc);
        Alcotest.(check bool) "flagged invalid" true
          (match Oplog.find q.Request.id h with
           | Some r -> r.Request.flag = Request.Invalid
           | None -> false));
    Alcotest.test_case "broadcast_form records direct dependency" `Quick (fun () ->
        let q1 = mk_req ~serial:1 ~ctx:Vclock.empty (Op.ins 0 'a') in
        let h = Oplog.append_local q1 Oplog.empty in
        let q2 = mk_req ~serial:2 ~ctx:(Vclock.of_list [ (1, 1) ]) (Op.ins 1 'b') in
        let q2' = Oplog.broadcast_form q2 h in
        Alcotest.(check bool) "dep set" true
          (match q2'.Request.dep with
           | Some d -> Request.id_equal d q1.Request.id
           | None -> false));
    Alcotest.test_case "set_flag validates a tentative request" `Quick (fun () ->
        let q = mk_req ~serial:1 ~flag:Request.Tentative ~ctx:Vclock.empty (Op.ins 0 'a') in
        let h = Oplog.append_local q Oplog.empty in
        Alcotest.(check int) "one tentative" 1 (List.length (Oplog.tentative_requests h));
        let h = Oplog.set_flag q.Request.id Request.Valid h in
        Alcotest.(check int) "none tentative" 0
          (List.length (Oplog.tentative_requests h)));
  ]

(* ----- Oplog.touched_positions against a replay of the log -----

   A seeded local log of user ops, undos among them (their cancellers
   are deletions, undeletions and write retractions), appended through
   Canonize.  The reference replays the log's ops from the initial
   document over cell identities and reads off where the cells its
   non-insertions touched stand at the end. *)
let touched_by_replay n0 ops =
  let cells = ref (Array.init n0 Fun.id) and next = ref n0 and touched = ref [] in
  List.iter
    (fun op ->
      match op with
      | Op.Ins { pos; _ } ->
        let a = !cells in
        cells :=
          Array.init (Array.length a + 1) (fun i ->
              if i < pos then a.(i) else if i = pos then !next else a.(i - 1));
        incr next
      | _ -> Option.iter (fun p -> touched := !cells.(p) :: !touched) (Op.pos op))
    ops;
  let at = Hashtbl.create 64 in
  Array.iteri (fun i id -> Hashtbl.replace at id i) !cells;
  Array.of_list (List.sort_uniq Int.compare (List.map (Hashtbl.find at) !touched))

let test_touched_positions =
  qtest "touched_positions is where a replay of the log leaves the touched cells"
    ~count:300 QCheck2.Gen.int string_of_int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n0 = Random.State.int rng 12 in
      let doc = ref (Tdoc.of_string (String.init n0 (fun i -> Char.chr (97 + i)))) in
      let h = ref Oplog.empty and live = ref [] in
      for serial = 1 to 1 + Random.State.int rng 40 do
        let undo =
          match !live with
          | id :: _ when Random.State.int rng 4 = 0 -> (
            match Oplog.undo ~cancel_version:1 id !h with
            | Some (inv, h') ->
              doc := Tdoc.apply !doc inv;
              h := h';
              live := List.tl !live;
              true
            | None -> false)
          | _ -> false
        in
        if not undo then begin
          let op = QCheck2.Gen.generate1 ~rand:rng (gen_user_op ~pr:1 !doc) in
          let q = mk_req ~serial ~flag:Request.Tentative ~ctx:Vclock.empty op in
          doc := Tdoc.apply !doc op;
          h := Oplog.append_local q !h;
          live := q.Request.id :: !live
        end
      done;
      Oplog.touched_positions !h = touched_by_replay n0 (Oplog.ops !h))

let () =
  Alcotest.run "dce_ot"
    [
      ("op", op_unit_tests @ [ test_inverse_cancels ]);
      ("stree", stree_tests);
      ("tdoc", tdoc_unit_tests @ tdoc_boundary_tests @ tdoc_memory_tests);
      ("tdoc-differential", differential_tests @ chunk_tests @ collapse_tests);
      ("tdoc-collapse", modulo_collapse_tests);
      ("document", doc_unit_tests);
      ( "transform",
        transform_unit_tests
        @ [
            test_tp1;
            test_tp2;
            test_three_way_convergence;
            test_et_inverts_it;
            test_canonize_transpose;
          ] );
      ("vclock", vclock_tests);
      ("cursor", cursor_tests);
      ("oplog", oplog_tests @ [ test_touched_positions ]);
      ( "engine",
        engine_unit_tests @ [ test_engine_convergence 2; test_engine_convergence 3 ] );
    ]
