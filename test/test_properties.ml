(* Property tests over the whole stack: coordinate systems, log
   invariants, undo algebra, cursors, policy decision procedures, and
   controller-level invariants.  Complements the scenario tests with
   randomized coverage of the state spaces they sample pointwise. *)

open Dce_ot
open Dce_core
open Helpers

(* ----- Tdoc coordinate systems ----- *)

let tdoc_properties =
  [
    qtest "visible/model coordinate roundtrip" ~count:1000 gen_tdoc show_tdoc
      (fun doc ->
        let n = Tdoc.visible_length doc in
        List.for_all
          (fun v -> Tdoc.visible_of_model doc (Tdoc.model_of_visible doc v) = v)
          (List.init n Fun.id));
    qtest "model_of_visible is strictly increasing" ~count:500 gen_tdoc show_tdoc
      (fun doc ->
        let n = Tdoc.visible_length doc in
        let ms = List.init (n + 1) (Tdoc.model_of_visible doc) in
        let rec strict = function
          | a :: (b :: _ as rest) -> a < b && strict rest
          | _ -> true
        in
        strict ms);
    qtest "visible helpers build ops that apply cleanly" ~count:1000
      QCheck2.Gen.(
        gen_tdoc >>= fun d ->
        int_range 0 1000 >>= fun k -> return (d, k))
      (fun (d, k) -> Format.asprintf "%s k=%d" (show_tdoc d) k)
      (fun (doc, k) ->
        let n = Tdoc.visible_length doc in
        let op =
          if n = 0 then Tdoc.ins_visible doc 0 'q'
          else
            match k mod 3 with
            | 0 -> Tdoc.ins_visible doc (k mod (n + 1)) 'q'
            | 1 -> Tdoc.del_visible doc (k mod n)
            | _ -> Tdoc.up_visible doc (k mod n) 'Q'
        in
        let doc' = Tdoc.apply doc op in
        (* applying a visible-coordinate op changes visible length by the
           expected amount and never touches other cells *)
        match op with
        | Op.Ins _ -> Tdoc.visible_length doc' = n + 1
        | Op.Del _ -> Tdoc.visible_length doc' = n - 1
        | Op.Up _ -> Tdoc.visible_length doc' = n
        | _ -> false);
    qtest "apply_all = iterated apply" ~count:300
      QCheck2.Gen.(
        gen_tdoc >>= fun d ->
        let rec ops d acc n =
          if n = 0 then return (List.rev acc)
          else gen_valid_op ~pr:1 d >>= fun o -> ops (Tdoc.apply d o) (o :: acc) (n - 1)
        in
        int_range 0 8 >>= fun n -> ops d [] n >>= fun os -> return (d, os))
      (fun (d, os) ->
        Format.asprintf "%s +%d ops" (show_tdoc d) (List.length os))
      (fun (doc, ops) ->
        Tdoc.equal_model Char.equal (Tdoc.apply_all doc ops)
          (List.fold_left Tdoc.apply doc ops));
  ]

(* ----- Cursor ----- *)

let cursor_properties =
  [
    qtest "cursors stay within the visible document" ~count:1000
      QCheck2.Gen.(
        gen_tdoc >>= fun d ->
        gen_valid_op ~pr:1 d >>= fun o ->
        int_range 0 (Tdoc.visible_length d) >>= fun p -> return (d, o, p))
      (fun (d, o, p) ->
        Format.asprintf "%s op=%a cursor=%d" (show_tdoc d) pp_char_op o p)
      (fun (doc, o, p) ->
        let doc' = Tdoc.apply doc o in
        let p' = Cursor.transform_position doc p o in
        p' >= 0 && p' <= Tdoc.visible_length doc');
    qtest "cursor transformation is monotone" ~count:1000
      QCheck2.Gen.(
        gen_tdoc >>= fun d ->
        gen_valid_op ~pr:1 d >>= fun o ->
        let n = Tdoc.visible_length d in
        pair (int_range 0 n) (int_range 0 n) >>= fun (a, b) -> return (d, o, a, b))
      (fun (d, o, a, b) ->
        Format.asprintf "%s op=%a p=%d q=%d" (show_tdoc d) pp_char_op o a b)
      (fun (doc, o, a, b) ->
        let p = min a b and q = max a b in
        Cursor.transform_position doc p o <= Cursor.transform_position doc q o);
    qtest "a right-biased cursor keeps tracking its element" ~count:1000
      QCheck2.Gen.(
        gen_tdoc >>= fun d ->
        let n = Tdoc.visible_length d in
        if n = 0 then return None
        else
          int_range 0 (n - 1) >>= fun v ->
          gen_valid_op ~pr:1 d >>= fun o -> return (Some (d, v, o)))
      (function
        | None -> "empty"
        | Some (d, v, o) ->
          Format.asprintf "%s watching=%d op=%a" (show_tdoc d) v pp_char_op o)
      (function
        | None -> true
        | Some (doc, v, o) ->
          (* watch the element at visible position v: unless the op hides
             or overwrites that very cell, the (right-biased) transformed
             position still points at an element with the same content *)
          let m = Tdoc.model_of_visible doc v in
          let touches_cell = Op.pos o = Some m && not (Op.is_ins o) in
          let doc' = Tdoc.apply doc o in
          let v' = Cursor.transform_position doc v o in
          touches_cell
          || v' < Tdoc.visible_length doc'
             && Char.equal
                  (Tdoc.content (Tdoc.cell doc m))
                  (List.nth (Tdoc.visible_list doc') v'));
    qtest "selection never inverts" ~count:1000
      QCheck2.Gen.(
        gen_tdoc >>= fun d ->
        gen_valid_op ~pr:1 d >>= fun o ->
        let n = Tdoc.visible_length d in
        pair (int_range 0 n) (int_range 0 n) >>= fun (a, b) -> return (d, o, a, b))
      (fun (d, o, a, b) ->
        Format.asprintf "%s %a sel=[%d,%d)" (show_tdoc d) pp_char_op o a b)
      (fun (doc, o, a, b) ->
        let s = { Cursor.anchor = min a b; focus = max a b } in
        let s' = Cursor.transform_selection doc s o in
        s'.Cursor.anchor <= s'.Cursor.focus);
  ]

(* ----- Oplog invariants ----- *)

(* a site generating a random local history, some of it already
   validated *)
let gen_local_history =
  let open QCheck2.Gen in
  let rec steps doc h ctx i n =
    if n = 0 then return (doc, h)
    else
      gen_user_op ~pr:1 doc >>= fun op ->
      oneofl [ Request.Tentative; Request.Valid ] >>= fun flag ->
      let q = Request.make ~site:1 ~serial:i ~op ~ctx ~policy_version:0 ~flag () in
      steps (Tdoc.apply doc op) (Oplog.append_local q h) (Vclock.tick ctx 1) (i + 1)
        (n - 1)
  in
  gen_tdoc >>= fun doc ->
  int_range 0 10 >>= fun n -> steps doc Oplog.empty Vclock.empty 1 n

(* ----- Oplog against the list reference -----

   A random history at site 1 is replayed into the shipped log and into
   [Oplog_ref] side by side.  A step is a pair [(kind, k)] decoded
   against the current state, so a shrunk history still decodes.
   Sites 2 and 3 (3 only in a 3-site history) generate on views that
   only grow, each the union of clocks the log held after earlier
   steps, so every context is causally closed; their positions are
   valid on the document of the oldest such clock. *)

type lockstep = {
  h : char Oplog.t;
  r : char Oplog_ref.t;
  past : (Vclock.t * int) list;
      (* the log's clock and model length after each step, newest first *)
  views : Vclock.t array;  (* indexed by site *)
}

let op_of ~site k len =
  match k mod 3 with
  | 1 when len > 0 -> Op.del (k / 3 mod len) 'x'
  | 2 when len > 0 -> Op.up ~tag:{ Op.stamp = k; site } (k / 3 mod len) 'x' 'y'
  | _ -> Op.ins ~pr:site (k / 3 mod (len + 1)) 'a'

let show_step (kind, k) =
  match kind with
  | 0 | 1 | 2 -> Printf.sprintf "local %d" k
  | 3 | 4 -> Printf.sprintf "remote %d" k
  | 5 -> Printf.sprintf "reject %d" k
  | 6 -> Printf.sprintf "validate %d" k
  | 7 -> Printf.sprintf "undo %d" k
  | 8 -> Printf.sprintf "compact %d" k
  | _ -> "reload"

let entry_key (e : char Oplog.entry) =
  let q = e.Oplog.req in
  (q.Request.id, e.Oplog.role, q.Request.flag, q.Request.op, q.Request.policy_version)

let request_key (q : char Request.t) = (q.Request.id, q.Request.flag, q.Request.op)

(* both logs return the same entries and answers, and the shipped one's
   indexes agree with its entries *)
let logs_agree { h; r; _ } =
  Oplog.well_formed h
  && List.map entry_key (Oplog.entries h) = List.map entry_key (Oplog_ref.entries r)
  && Oplog.ops h = Oplog_ref.ops r
  && Oplog.length h = Oplog_ref.length r
  && Vclock.equal (Oplog.compacted_upto h) (Oplog_ref.compacted_upto r)
  && Oplog.is_canonical h = Oplog_ref.is_canonical r
  && List.map request_key (Oplog.tentative_requests h)
     = List.map request_key (Oplog_ref.tentative_requests r)
  && List.for_all
       (fun (q : char Request.t) ->
         Option.map request_key (Oplog.find q.Request.id h) = Some (request_key q)
         && Oplog.mem q.Request.id h)
       (Oplog_ref.requests r)

(* one step applied to both logs; [None] once their answers differ *)
let lockstep_step ~sites st (kind, k) =
  let clock, len = List.hd st.past in
  let next h r ~clock ~len = Some { st with h; r; past = (clock, len) :: st.past } in
  let pick_id () =
    match Oplog_ref.requests st.r with
    | rs when rs <> [] && k mod 5 <> 0 -> (List.nth rs (k / 5 mod List.length rs)).Request.id
    | _ -> { Request.site = 1 + (k mod sites); serial = 1 + (k / 5 mod 40) }
  in
  let grows op = if Op.is_ins op then len + 1 else len in
  match kind with
  | 0 | 1 | 2 ->
    let op = op_of ~site:1 k len in
    let flag = if k mod 4 = 0 then Request.Tentative else Request.Valid in
    let q =
      Request.make ~site:1 ~serial:(Vclock.get clock 1 + 1) ~op ~ctx:clock
        ~policy_version:0 ~flag ()
    in
    let qh = Oplog.broadcast_form q st.h and qr = Oplog_ref.broadcast_form q st.r in
    if qh.Request.dep <> qr.Request.dep then None
    else
      next (Oplog.append_local qh st.h) (Oplog_ref.append_local qr st.r)
        ~clock:(Vclock.tick clock 1) ~len:(grows op)
  | 3 | 4 | 5 ->
    let site = 2 + (k mod (sites - 1)) in
    let seen, seen_len = List.nth st.past (k / 3 mod List.length st.past) in
    let view =
      Vclock.merge (Vclock.merge st.views.(site) seen)
        (Vclock.of_list [ (site, Vclock.get clock site) ])
    in
    st.views.(site) <- view;
    let q =
      Request.make ~site ~serial:(Vclock.get clock site + 1)
        ~op:(op_of ~site (k / 7) seen_len) ~ctx:view
        ~policy_version:(if k mod 2 = 0 then 0 else 2)
        ~flag:(if k mod 4 = 1 then Request.Tentative else Request.Valid)
        ()
    in
    let clock = Vclock.tick clock site and len = grows q.Request.op in
    if kind = 5 then
      let ops_h, h = Oplog.append_rejected ~cancel_version:1 q st.h in
      let ops_r, r = Oplog_ref.append_rejected ~cancel_version:1 q st.r in
      if ops_h <> ops_r then None else next h r ~clock ~len
    else
      let op_h, h = Oplog.integrate q st.h in
      let op_r, r = Oplog_ref.integrate q st.r in
      if op_h <> op_r then None else next h r ~clock ~len
  | 6 -> (
    let id = pick_id () in
    match (Oplog.validate id st.h, Oplog_ref.validate id st.r) with
    | Some h, Some r -> next h r ~clock ~len
    | None, None -> next st.h st.r ~clock ~len
    | _ -> None)
  | 7 -> (
    let id = pick_id () in
    match (Oplog.undo ~cancel_version:1 id st.h, Oplog_ref.undo ~cancel_version:1 id st.r) with
    | Some (op_h, h), Some (op_r, r) when op_h = op_r -> next h r ~clock ~len
    | None, None -> next st.h st.r ~clock ~len
    | _ -> None)
  | 8 ->
    let stable, _ = List.nth st.past (k mod List.length st.past) in
    let stable_version = k / 7 mod 3 in
    next
      (Oplog.compact ~stable ~stable_version st.h)
      (Oplog_ref.compact ~stable ~stable_version st.r)
      ~clock ~len
  | _ ->
    let compacted = Oplog.compacted_upto st.h in
    next
      (Oplog.of_entries ~compacted (Oplog.entries st.h))
      (Oplog_ref.of_entries ~compacted (Oplog_ref.entries st.r))
      ~clock ~len

let lockstep_agrees (three, steps) =
  let sites = if three then 3 else 2 in
  let rec run st = function
    | [] -> true
    | s :: rest -> (
      match lockstep_step ~sites st s with
      | Some st -> logs_agree st && run st rest
      | None -> false)
  in
  run
    {
      h = Oplog.empty;
      r = Oplog_ref.empty;
      past = [ (Vclock.empty, 0) ];
      views = Array.make 4 Vclock.empty;
    }
    steps

let gen_lockstep =
  QCheck2.Gen.(
    pair bool (list_size (int_range 1 60) (pair (int_range 0 9) (int_range 0 1_000_000))))

let show_lockstep (three, steps) =
  Printf.sprintf "%d sites: %s" (if three then 3 else 2)
    (String.concat "; " (List.map show_step steps))

let oplog_properties =
  [
    qtest "the log matches the list reference step for step" ~count:500 gen_lockstep
      show_lockstep lockstep_agrees;
    qtest "append-only histories stay canonical" ~count:500 gen_local_history
      (fun (d, h) -> Format.asprintf "%s |H|=%d" (show_tdoc d) (Oplog.length h))
      (fun (_, h) -> Oplog.is_canonical h);
    qtest "undo leaves a log that replays to the post-undo document" ~count:500
      QCheck2.Gen.(
        gen_tdoc >>= fun doc0 ->
        let rec steps doc h ctx i n =
          if n = 0 then return (doc, h)
          else
            gen_user_op ~pr:1 doc >>= fun op ->
            let q =
              Request.make ~site:1 ~serial:i ~op ~ctx ~policy_version:0
                ~flag:Request.Tentative ()
            in
            steps (Tdoc.apply doc op) (Oplog.append_local q h) (Vclock.tick ctx 1)
              (i + 1) (n - 1)
        in
        int_range 1 8 >>= fun n ->
        steps doc0 Oplog.empty Vclock.empty 1 n >>= fun (doc, h) ->
        int_range 1 n >>= fun serial -> return (doc0, doc, h, serial))
      (fun (_, d, h, serial) ->
        Format.asprintf "%s |H|=%d undo #%d" (show_tdoc d) (Oplog.length h) serial)
      (fun (doc0, doc, h, serial) ->
        match Oplog.undo ~cancel_version:1 { Request.site = 1; serial } h with
        | None -> false
        | Some (op, h') ->
          let doc' = Tdoc.apply doc op in
          Tdoc.equal_model Char.equal doc' (Tdoc.apply_all doc0 (Oplog.ops h')));
    qtest "undo is idempotent per request" ~count:300 gen_local_history
      (fun (d, h) -> Format.asprintf "%s |H|=%d" (show_tdoc d) (Oplog.length h))
      (fun (_, h) ->
        match Oplog.requests h with
        | [] -> true
        | q :: _ -> (
            match Oplog.undo ~cancel_version:1 q.Request.id h with
            | None -> true
            | Some (_, h') -> Oplog.undo ~cancel_version:1 q.Request.id h' = None));
    qtest "compaction never changes the replayed document" ~count:300
      QCheck2.Gen.(
        gen_tdoc >>= fun doc0 ->
        let rec steps doc h ctx i n =
          if n = 0 then return (doc, h)
          else
            gen_user_op ~pr:1 doc >>= fun op ->
            let q =
              Request.make ~site:1 ~serial:i ~op ~ctx ~policy_version:0
                ~flag:Request.Valid ()
            in
            steps (Tdoc.apply doc op) (Oplog.append_local q h) (Vclock.tick ctx 1)
              (i + 1) (n - 1)
        in
        int_range 0 8 >>= fun n ->
        steps doc0 Oplog.empty Vclock.empty 1 n >>= fun (doc, h) ->
        int_range 0 (n + 1) >>= fun upto -> return (doc, h, upto))
      (fun (d, h, upto) ->
        Format.asprintf "%s |H|=%d upto=%d" (show_tdoc d) (Oplog.length h) upto)
      (fun (_, h, upto) ->
        let stable = Vclock.of_list [ (1, upto) ] in
        let h' = Oplog.compact ~stable ~stable_version:0 h in
        (* compaction only drops entries; live entries are untouched *)
        Oplog.live_length h' <= Oplog.length h
        && List.for_all
             (fun (q : char Request.t) -> Oplog.mem q.Request.id h')
             (Oplog.requests h));
    (* The log's indexes (id set, tentative positions) must keep
       agreeing with a scan of the stored entries through every
       mutation: appends that bubble, window-local integrations that
       separate, validation, undo (which appends a canceller and
       reflags) and compaction (which shifts positions).  Histories mix
       settled and tentative entries, so both lookup paths run. *)
    qtest "id index agrees with entry scans through mixed workloads" ~count:500
      QCheck2.Gen.(
        gen_local_history >>= fun (_, h) ->
        let n = List.length (Oplog.requests h) in
        let flag = oneofl [ Request.Tentative; Request.Valid ] in
        let id = pair (int_range 1 2) (int_range 1 (n + 4)) in
        list_size (int_range 0 12)
          (oneof
             [
               map (fun f -> `Local f) flag;
               map2 (fun floor f -> `Remote (floor, f)) (int_range 0 (n + 4)) flag;
               map (fun i -> `Validate i) id;
               map (fun i -> `Undo i) id;
               map2 (fun c1 c2 -> `Compact (c1, c2)) (int_range 0 (n + 4)) (int_range 0 4);
             ])
        >>= fun steps -> return (h, steps))
      (fun (h, steps) ->
        Format.asprintf "|H|=%d steps=[%s]" (Oplog.length h)
          (String.concat "; "
             (List.map
                (function
                  | `Local _ -> "local"
                  | `Remote (f, _) -> Printf.sprintf "remote@%d" f
                  | `Validate (s, r) -> Printf.sprintf "validate %d.%d" s r
                  | `Undo (s, r) -> Printf.sprintf "undo %d.%d" s r
                  | `Compact (a, b) -> Printf.sprintf "compact %d,%d" a b)
                steps)))
      (fun (h, steps) ->
        let normal =
          List.filter_map (fun (e : char Oplog.entry) ->
              match e.Oplog.role with
              | Oplog.Normal -> Some e.Oplog.req
              | Oplog.Canceller _ -> None)
        in
        let scan id h =
          List.find_opt
            (fun (q : char Request.t) -> Request.id_equal q.Request.id id)
            (normal (Oplog.entries h))
        in
        let agrees h =
          let scanned = normal (Oplog.entries h) in
          Oplog.well_formed h
          && Oplog.length h = List.length (Oplog.entries h)
          && List.for_all
               (fun (q : char Request.t) ->
                 Oplog.mem q.Request.id h && Oplog.find q.Request.id h = Some q)
               scanned
          && Oplog.find { Request.site = 9; serial = 1 } h = None
          && (not (Oplog.mem { Request.site = 9; serial = 1 } h))
          && Oplog.tentative_requests h
             = List.filter
                 (fun (q : char Request.t) -> q.Request.flag = Request.Tentative)
                 scanned
        in
        (* site 1 is the local site; site 2 sends insertions whose
           contexts cover random prefixes of site 1's history, so the
           concurrency windows start at different depths *)
        let count site h =
          List.fold_left
            (fun m (q : char Request.t) ->
              if q.Request.id.Request.site = site then max m q.Request.id.Request.serial
              else m)
            (Vclock.get (Oplog.compacted_upto h) site)
            (normal (Oplog.entries h))
        in
        let clock h = Vclock.of_list [ (1, count 1 h); (2, count 2 h) ] in
        let step h = function
          | `Local flag ->
            let q =
              Request.make ~site:1 ~serial:(count 1 h + 1) ~op:(Op.ins ~pr:1 0 'l')
                ~ctx:(clock h) ~policy_version:0 ~flag ()
            in
            Some (Oplog.append_local q h)
          | `Remote (floor, flag) ->
            let ctx =
              Vclock.of_list [ (1, min floor (count 1 h)); (2, count 2 h) ]
            in
            let q =
              Request.make ~site:2 ~serial:(count 2 h + 1) ~op:(Op.ins ~pr:2 0 'z') ~ctx
                ~policy_version:0 ~flag ()
            in
            Some (snd (Oplog.integrate q h))
          | `Validate (site, serial) ->
            let id = { Request.site; serial } in
            let h' = Oplog.validate id h in
            (match (scan id h, h') with
             | Some q, Some h' when q.Request.flag = Request.Tentative ->
               let expect =
                 List.map
                   (fun (e : char Oplog.entry) ->
                     match e.Oplog.role with
                     | Oplog.Normal when Request.id_equal e.Oplog.req.Request.id id ->
                       { e with Oplog.req = { q with Request.flag = Request.Valid } }
                     | _ -> e)
                   (Oplog.entries h)
               in
               if Oplog.entries h' = expect then Some h' else None
             | Some q, None when q.Request.flag <> Request.Tentative -> Some h
             | None, None -> Some h
             | _ -> None)
          | `Undo (site, serial) ->
            let id = { Request.site; serial } in
            (match (scan id h, Oplog.undo ~cancel_version:1 id h) with
             | Some q, Some (_, h') when q.Request.flag <> Request.Invalid ->
               (match Oplog.find id h' with
                | Some q' when q'.Request.flag = Request.Invalid -> Some h'
                | _ -> None)
             | Some q, None when q.Request.flag = Request.Invalid -> Some h
             | None, None -> Some h
             | _ -> None)
          | `Compact (c1, c2) ->
            Some
              (Oplog.compact ~stable:(Vclock.of_list [ (1, c1); (2, c2) ])
                 ~stable_version:1 h)
        in
        let rec run h = function
          | [] -> true
          | s :: rest -> (
            match step h s with Some h -> agrees h && run h rest | None -> false)
        in
        agrees h && run h steps);
  ]

(* ----- Policy / Admin_log cross-checks ----- *)

let gen_small_policy =
  let open QCheck2.Gen in
  let gen_subject = oneof [ return Subject.Any; map (fun u -> Subject.User u) (int_range 1 3) ] in
  let gen_right = oneofl [ Right.Insert; Right.Delete; Right.Update ] in
  let gen_auth =
    pair (pair gen_subject gen_right) bool >|= fun ((s, r), pos) ->
    if pos then Auth.grant [ s ] [ Docobj.Whole ] [ r ] else Auth.deny [ s ] [ Docobj.Whole ] [ r ]
  in
  list_size (int_range 0 6) gen_auth >|= fun auths -> Policy.make ~users:[ 0; 1; 2; 3 ] auths

let policy_properties =
  [
    qtest "first-match check equals the reference fold" ~count:1000
      QCheck2.Gen.(
        gen_small_policy >>= fun p ->
        pair (int_range 0 4) (oneofl [ Right.Insert; Right.Delete; Right.Update ])
        >>= fun (u, r) -> return (p, u, r))
      (fun (_, u, r) -> Format.asprintf "user=%d right=%a" u Right.pp r)
      (fun (p, u, r) ->
        let reference =
          Policy.is_user p u
          &&
          let rec go = function
            | [] -> false
            | a :: rest ->
              if
                Auth.matches
                  ~member:(fun g v -> Policy.member p g v)
                  ~resolve:(fun n -> Policy.resolve p n)
                  a ~user:u ~right:r ~pos:(Some 0)
              then not (Auth.is_restrictive a)
              else go rest
          in
          go (Policy.auths p)
        in
        Policy.check p ~user:u ~right:r ~pos:(Some 0) = reference);
    qtest "first_denial agrees with checking every version" ~count:500
      QCheck2.Gen.(
        gen_small_policy >>= fun p0 ->
        list_size (int_range 0 6)
          (pair (pair (int_range 1 3) (oneofl [ Right.Insert; Right.Delete; Right.Update ])) bool)
        >>= fun actions ->
        pair (int_range 1 3) (oneofl [ Right.Insert; Right.Delete; Right.Update ])
        >>= fun probe -> return (p0, actions, probe))
      (fun (_, actions, (u, r)) ->
        Format.asprintf "%d actions, probe user=%d %a" (List.length actions) u Right.pp r)
      (fun (p0, actions, (u, r)) ->
        (* build an admin log of denies/grants *)
        let l = Admin_log.create ~admin:0 p0 in
        let l, _ =
          List.fold_left
            (fun (l, v) ((target, right), grant) ->
              let auth =
                if grant then Auth.grant [ Subject.User target ] [ Docobj.Whole ] [ right ]
                else Auth.deny [ Subject.User target ] [ Docobj.Whole ] [ right ]
              in
              let req =
                {
                  Admin_op.admin = 0;
                  version = v;
                  op = Admin_op.Add_auth (0, auth);
                  ctx = Vclock.empty;
                }
              in
              match Admin_log.append l req with
              | Ok l -> (l, v + 1)
              | Error _ -> (l, v))
            (l, 1) actions
        in
        let fast = Admin_log.first_denial l ~from_version:0 ~user:u ~right:r ~pos:(Some 0) in
        let brute =
          List.find_opt
            (fun v ->
              not
                (Policy.check (Option.get (Admin_log.policy_at l v)) ~user:u ~right:r
                   ~pos:(Some 0)))
            (List.init (Admin_log.version l + 1) Fun.id)
        in
        fast = brute);
  ]

(* ----- Admin_log against the list reference -----

   Random histories over every administrative operation kind, cut at
   random versions, replayed into the indexed log and into
   [Admin_log_ref] (the list it replaced, which never drops an entry).
   Every version must answer the same policy, administrator, restrictive
   versions and first denial, and the suffix accessor must either match
   the reference or refuse, below the cut only.  The log's operations are
   passed as a record so that seeded mutants can stand in for them. *)

type log_impl = {
  compact : Admin_log.t -> upto:int -> Admin_log.t;
  first_denial :
    Admin_log.t -> from_version:int -> user:Subject.user -> right:Right.t ->
    pos:int option -> int option;
}

let shipped_log = { compact = Admin_log.compact; first_denial = Admin_log.first_denial }

(* one step's operation, every kind reachable; Validates weigh in as
   often as the nine others together, as on a live session *)
let admin_op_of k =
  let u = k mod 4 and k' = k / 4 in
  let subject =
    match k' mod 3 with 0 -> Subject.Any | 1 -> Subject.User u | _ -> Subject.Group "g"
  in
  let obj =
    match (k' / 3) mod 3 with
    | 0 -> Docobj.Whole
    | 1 -> Docobj.Zone { lo = 1; hi = 3 }
    | _ -> Docobj.Named "n"
  in
  let right = List.nth Right.all ((k' / 9) mod List.length Right.all) in
  match (k / 108) mod 18 with
  | 0 -> Admin_op.Add_user u
  | 1 -> Admin_op.Del_user u
  | 2 -> Admin_op.Add_to_group ("g", u)
  | 3 -> Admin_op.Del_from_group ("g", u)
  | 4 -> Admin_op.Add_obj ("n", Docobj.Zone { lo = 0; hi = u })
  | 5 -> Admin_op.Del_obj "n"
  | 6 ->
    Admin_op.Add_auth
      ( 0,
        if k mod 2 = 0 then Auth.grant [ subject ] [ obj ] [ right ]
        else Auth.deny [ subject ] [ obj ] [ right ] )
  | 7 -> Admin_op.Del_auth 0
  | 8 -> Admin_op.Transfer_admin u
  | _ -> Admin_op.Validate { Request.site = u; serial = k }

(* (initial policy, steps): a step [(k, 0)] cuts at a version drawn from
   [k], any other step appends [admin_op_of k] *)
let gen_history =
  QCheck2.Gen.(
    pair gen_small_policy (list_size (int_range 0 30) (pair (int_range 0 100_000) (int_range 0 4))))

let show_history (_, steps) =
  String.concat "; "
    (List.map
       (fun (k, choice) ->
         if choice = 0 then Printf.sprintf "cut(%d)" k
         else Format.asprintf "%a" Admin_op.pp (admin_op_of k))
       steps)

(* replay a history into both logs; also returns the highest cut asked
   for, a version every member has reached.  [None] once [append]
   accepts a request the reference refuses, or the reverse. *)
let replay_history impl (p0, steps) =
  List.fold_left
    (fun acc (k, choice) ->
      match acc with
      | None -> None
      | Some (r, l, stable) ->
        if choice = 0 then
          let upto = k mod (Admin_log_ref.version r + 1) in
          Some (r, impl.compact l ~upto, max stable upto)
        else
          let req =
            {
              Admin_op.admin = Admin_log_ref.current_admin r;
              version = Admin_log_ref.version r + 1;
              op = admin_op_of k;
              ctx = Vclock.empty;
            }
          in
          (match (Admin_log_ref.append r req, Admin_log.append l req) with
           | Ok r, Ok l -> Some (r, l, stable)
           | Error _, Error _ -> acc
           | _ -> None))
    (Some (Admin_log_ref.create ~admin:0 p0, Admin_log.create ~admin:0 p0, 0))
    steps

let policy_key p = (Policy.users p, Policy.groups p, Policy.objects p, Policy.auths p)

let log_agrees impl history =
  match replay_history impl history with
  | None -> false
  | Some (r, l, stable) ->
  let n = Admin_log_ref.version r in
  let probes =
    List.concat_map
      (fun user ->
        List.concat_map
          (fun right -> List.map (fun pos -> (user, right, pos)) [ None; Some 1; Some 4 ])
          Right.all)
      [ 0; 1; 2; 3 ]
  in
  let at v =
    Option.map policy_key (Admin_log.policy_at l v)
    = Option.map policy_key (Admin_log_ref.policy_at r v)
    && Admin_log.admin_at l v = Admin_log_ref.admin_at r v
    && Admin_log.restrictive_since l v
       = List.map (fun q -> q.Admin_op.version) (Admin_log_ref.restrictive_since r v)
    && (match Admin_log.suffix l v with
        | Some rs ->
          rs = List.filter (fun q -> q.Admin_op.version > v) (Admin_log_ref.requests r)
        | None -> v < Admin_log.cut l && v < stable)
    && List.for_all
         (fun (user, right, pos) ->
           impl.first_denial l ~from_version:v ~user ~right ~pos
           = Admin_log_ref.first_denial r ~from_version:v ~user ~right ~pos)
         probes
  in
  Admin_log.version l = n
  && policy_key (Admin_log.current l) = policy_key (Admin_log_ref.current r)
  && Admin_log.current_admin l = Admin_log_ref.current_admin r
  && Admin_log.cut l <= stable
  && List.for_all at (List.init (n + 3) (fun i -> i - 1))

(* seeded mutants, each of which the differential must catch *)
let off_by_one_denial t ~from_version ~user ~right ~pos =
  (* skips a restrictive request at [from_version + 1] *)
  let granted v =
    match Admin_log.policy_at t v with
    | Some p -> Policy.check p ~user ~right ~pos
    | None -> false
  in
  if from_version > Admin_log.version t then None
  else if not (granted from_version) then Some from_version
  else
    List.find_opt (fun v -> not (granted v))
      (Admin_log.restrictive_since t (from_version + 1))

let cut_a_change t ~upto =
  (* the shipped cut, plus the oldest entry that changes the policy or
     the administrator at or below [upto] *)
  let t = Admin_log.compact t ~upto in
  let rs = Admin_log.requests t in
  match
    List.find_opt
      (fun (q : Admin_op.request) ->
        q.Admin_op.version <= upto
        && q.Admin_op.version < Admin_log.version t
        && match q.Admin_op.op with Admin_op.Validate _ -> false | _ -> true)
      rs
  with
  | None -> t
  | Some victim -> (
    match
      Admin_log.of_requests ~admin:(Admin_log.initial_admin t) (Admin_log.initial t)
        (List.filter (fun q -> q != victim) rs)
    with
    | Ok t' -> t'
    | Error _ -> t)

let admin_log_properties =
  [
    qtest "indexed log agrees with the list reference at every version, cut or not"
      ~count:300 gen_history show_history (log_agrees shipped_log);
    Alcotest.test_case "seeded mutants of the log are caught" `Quick (fun () ->
        let cases =
          QCheck2.Gen.generate ~rand:(Random.State.make [| 16 |]) ~n:300 gen_history
        in
        List.iter
          (fun (name, impl) ->
            Alcotest.(check bool) (name ^ " is caught") true
              (List.exists (fun h -> not (log_agrees impl h)) cases))
          [
            ( "restrictive boundary off by one",
              { shipped_log with first_denial = off_by_one_denial } );
            ("a cut that drops an entry changing the policy", { shipped_log with compact = cut_a_change });
            ( "a cut one version too high",
              { shipped_log with compact = (fun t ~upto -> Admin_log.compact t ~upto:(upto + 1)) }
            );
          ]);
  ]

(* ----- Controller invariants ----- *)

let controller_properties =
  [
    qtest "a denied generation leaves the controller untouched" ~count:300
      QCheck2.Gen.(int_range 0 1000)
      string_of_int
      (fun k ->
        let policy =
          Policy.make ~users:[ 0; 1 ]
            [ Auth.deny [ Subject.User 1 ] [ Docobj.Whole ] [ Right.Insert ];
              Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
        in
        let c =
          Controller.create ~eq:Char.equal ~site:1 ~admin:0 ~policy
            (Tdoc.of_string "abc")
        in
        match Controller.generate c (Op.ins (k mod 4) 'x') with
        | c', Controller.Denied _ ->
          Tdoc.equal_model Char.equal (Controller.document c) (Controller.document c')
          && Oplog.length (Controller.oplog c') = 0
        | _ -> false);
    qtest "versions are monotone under any message replay" ~count:200
      QCheck2.Gen.(list_size (int_range 0 20) (int_range 0 1000))
      (fun l -> Printf.sprintf "%d msgs" (List.length l))
      (fun choices ->
        (* feed a user controller an arbitrary mix of (possibly
           duplicated, out of order) admin messages *)
        let policy =
          Policy.make ~users:[ 0; 1 ] [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
        in
        let a =
          Controller.create ~eq:Char.equal ~site:0 ~admin:0 ~policy (Tdoc.of_string "x")
        in
        let rec mk_admin a n acc =
          if n = 0 then List.rev acc
          else
            match Controller.admin_update a (Admin_op.Add_user (100 + n)) with
            | Ok (a, m) -> mk_admin a (n - 1) (m :: acc)
            | Error _ -> List.rev acc
        in
        let msgs = Array.of_list (mk_admin a 5 []) in
        let c =
          Controller.create ~eq:Char.equal ~site:1 ~admin:0 ~policy (Tdoc.of_string "x")
        in
        let _, ok =
          List.fold_left
            (fun (c, ok) k ->
              let before = Controller.version c in
              let c, _ = Controller.receive c msgs.(k mod Array.length msgs) in
              (c, ok && Controller.version c >= before))
            (c, true) choices
        in
        ok);
    qtest "compaction at arbitrary points is invisible to a never-compacted twin"
      ~count:120
      QCheck2.Gen.(list_size (int_range 8 60) (int_range 0 100_000))
      (fun l -> Printf.sprintf "%d choices" (List.length l))
      (fun choices ->
        (* Two fleets run the SAME session in lockstep — same generations,
           same delivery schedule.  The [twin] fleet additionally absorbs
           beacons and compacts its window (and its administrative log) at
           points chosen by the random stream; [plain] never compacts.
           Compaction is pure garbage collection, so at quiescence every
           twin must be content-fingerprint-identical to its plain double,
           answer the same policy and administrator at every version, and,
           with every peer's beacon in hand, must compact its window to
           zero. *)
        let nsites = 3 in
        let policy =
          Policy.make ~users:[ 0; 1; 2 ]
            [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
        in
        let mk site =
          Controller.create ~eq:Char.equal ~site ~admin:0 ~policy (Tdoc.of_string "seed")
        in
        let plain = Array.init nsites mk in
        let twin = Array.init nsites mk in
        (* pending.(dst): messages awaiting delivery at dst, oldest first *)
        let pending = Array.make nsites [] in
        let enqueue src msgs =
          List.iter
            (fun m ->
              for dst = 0 to nsites - 1 do
                if dst <> src then pending.(dst) <- pending.(dst) @ [ m ]
              done)
            msgs
        in
        let deliver dst =
          match pending.(dst) with
          | [] -> ()
          | m :: rest ->
            pending.(dst) <- rest;
            let p, out = Controller.receive plain.(dst) m in
            let t, _ = Controller.receive twin.(dst) m in
            plain.(dst) <- p;
            twin.(dst) <- t;
            enqueue dst out
        in
        let generate site k =
          let d = Controller.document plain.(site) in
          let pos = k mod (Tdoc.visible_length d + 1) in
          let op = Tdoc.ins_visible d pos (Char.chr (Char.code 'a' + (k mod 26))) in
          match Controller.generate plain.(site) op with
          | p, Controller.Accepted m ->
            (* the twin holds the same state, so the same op is accepted
               there and produces the same request *)
            let t, _ = Controller.generate twin.(site) op in
            plain.(site) <- p;
            twin.(site) <- t;
            enqueue site [ m ]
          | _, Controller.Denied _ -> ()
        in
        (* a policy change, so L holds entries besides the Validates that
           no cut may drop *)
        let administer k =
          let name = Printf.sprintf "o%d" (Controller.version plain.(0)) in
          let op = Admin_op.Add_obj (name, Docobj.Zone { lo = 0; hi = k mod 5 }) in
          match (Controller.admin_update plain.(0) op, Controller.admin_update twin.(0) op) with
          | Ok (p, m), Ok (t, _) ->
            plain.(0) <- p;
            twin.(0) <- t;
            enqueue 0 [ m ]
          | _ -> ()
        in
        let beacon_and_compact site =
          for peer = 0 to nsites - 1 do
            if peer <> site then begin
              let clock, version = Controller.beacon twin.(peer) in
              twin.(site) <-
                Controller.receive_beacon twin.(site)
                  ~peer:(Controller.site twin.(peer))
                  ~clock ~version
            end
          done;
          twin.(site) <- Controller.compact twin.(site)
        in
        List.iter
          (fun k ->
            let site = k mod nsites in
            match (k / nsites) mod 3 with
            | 0 when site = 0 && (k / 9) mod 4 = 0 -> administer (k / 9)
            | 0 -> generate site (k / 9)
            | 1 -> deliver site
            | _ -> beacon_and_compact site)
          choices;
        (* drain to quiescence: everyone delivers everything *)
        let rec drain () =
          if Array.exists (fun q -> q <> []) pending then begin
            for dst = 0 to nsites - 1 do
              deliver dst
            done;
            drain ()
          end
        in
        drain ();
        (* a final full beacon exchange lets every twin compact to zero *)
        for site = 0 to nsites - 1 do
          beacon_and_compact site
        done;
        let fp c = Dce_wire.Proto.content_fingerprint Dce_wire.Proto.char_codec c in
        Array.for_all Fun.id
          (Array.init nsites (fun i ->
               String.equal (fp plain.(i)) (fp twin.(i))
               && Tdoc.equal_model Char.equal
                    (Controller.document plain.(i))
                    (Controller.document twin.(i))
               && Vclock.equal (Controller.clock plain.(i)) (Controller.clock twin.(i))
               && Controller.version plain.(i) = Controller.version twin.(i)
               && Controller.window_len twin.(i) = 0
               &&
               let lp = Controller.admin_log plain.(i)
               and lt = Controller.admin_log twin.(i) in
               List.for_all
                 (fun v ->
                   Option.map policy_key (Admin_log.policy_at lp v)
                   = Option.map policy_key (Admin_log.policy_at lt v)
                   && Admin_log.admin_at lp v = Admin_log.admin_at lt v)
                 (List.init (Admin_log.version lp + 1) Fun.id))));
  ]

(* ----- snapshot and delta catch-up leave the same group -----

   One random 3-site session (generations, deliveries, beacons plus
   compaction, policy changes) runs until a joiner — the administrator
   in some cases — falls behind: either it is frozen and keeps editing
   offline, or it dies and is resurrected from an older copy of itself,
   taken before its peers compacted on its later beacons.  Then the
   session forks.  Fleet S catches the joiner up from the donor's
   encoded snapshot, fleet D from the donor's encoded delta, falling
   back to fleet S's route when [delta_since] declines.  Each fleet
   delivers what the joiner returned, drains and runs one beacon round;
   both must converge, and every site must hold the same content and
   stability frontier in both. *)

type fleet = {
  sites : char Controller.t array;
  inbox : char Controller.message list array; (* oldest first *)
  mutable down : int option; (* the site whose link is cut *)
}

let send f ~src msgs =
  if f.down <> Some src then
    List.iter
      (fun m ->
        Array.iteri
          (fun dst _ ->
            if dst <> src && f.down <> Some dst then f.inbox.(dst) <- f.inbox.(dst) @ [ m ])
          f.sites)
      msgs

let deliver f dst =
  match f.inbox.(dst) with
  | [] -> ()
  | m :: rest ->
    f.inbox.(dst) <- rest;
    let c, out = Controller.receive f.sites.(dst) m in
    f.sites.(dst) <- c;
    send f ~src:dst out

let rec drain_inbox f dst =
  if f.inbox.(dst) <> [] then begin
    deliver f dst;
    drain_inbox f dst
  end

let rec drain_fleet f =
  if Array.exists (fun q -> q <> []) f.inbox then begin
    Array.iteri (fun dst _ -> deliver f dst) f.sites;
    drain_fleet f
  end

let absorb_beacons f site =
  Array.iteri
    (fun peer c ->
      if peer <> site && f.down <> Some peer && f.down <> Some site then
        let clock, version = Controller.beacon c in
        f.sites.(site) <-
          Controller.receive_beacon f.sites.(site) ~peer:(Controller.site c) ~clock ~version)
    f.sites

let beacon_and_compact f site =
  absorb_beacons f site;
  f.sites.(site) <- Controller.compact f.sites.(site)

let state_codec = Dce_wire.Proto.char_codec

let decoded what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ e)

let by_snapshot joiner donor =
  let module P = Dce_wire.Proto in
  let st =
    decoded "decode_state"
      (P.decode_state state_codec (P.encode_state state_codec (Controller.dump donor)))
  in
  Controller.catch_up joiner (decoded "load" (Controller.load ~eq:Char.equal st))

let by_delta fallbacks joiner donor =
  let module P = Dce_wire.Proto in
  match
    Controller.delta_since donor ~clock:(Controller.clock joiner)
      ~version:(Controller.version joiner)
  with
  | None ->
    incr fallbacks;
    by_snapshot joiner donor
  | Some d ->
    let d = decoded "decode_delta" (P.decode_delta state_codec (P.encode_delta state_codec d)) in
    decoded "apply_delta" (Controller.apply_delta joiner d)

let snapshot_delta_twin fallbacks (choices, joiner, resurrect, at) =
  let nsites = 3 in
  let policy =
    Policy.make ~users:[ 0; 1; 2 ] [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
  in
  let mk site =
    Controller.create ~eq:Char.equal ~site ~admin:0 ~policy (Tdoc.of_string "seed")
  in
  let f = { sites = Array.init nsites mk; inbox = Array.make nsites []; down = None } in
  let generate site k =
    let d = Controller.document f.sites.(site) in
    let pos = k mod (Tdoc.visible_length d + 1) in
    match
      Controller.generate f.sites.(site)
        (Tdoc.ins_visible d pos (Char.chr (Char.code 'a' + (k mod 26))))
    with
    | c, Controller.Accepted m ->
      f.sites.(site) <- c;
      send f ~src:site [ m ]
    | _, Controller.Denied _ -> ()
  in
  (* policy changes: a new object, a deny on a zone of a user's inserts
     (restrictive, so it undoes and rejects), or dropping that deny *)
  let administer k =
    let p = Controller.policy f.sites.(0) in
    let op =
      match k mod 3 with
      | 1 ->
        Admin_op.Add_auth
          ( 0,
            Auth.deny
              [ Subject.User (1 + (k mod 2)) ]
              [ Docobj.Zone { lo = 0; hi = k mod 5 } ]
              [ Right.Insert ] )
      | 2 when List.length (Policy.auths p) > 1 -> Admin_op.Del_auth 0
      | _ -> Admin_op.Add_obj (Printf.sprintf "o%d" (Controller.version f.sites.(0)), Docobj.Whole)
    in
    match Controller.admin_update f.sites.(0) op with
    | Ok (c, m) ->
      f.sites.(0) <- c;
      send f ~src:0 [ m ]
    | Error _ -> ()
  in
  let step k =
    let site = k mod nsites in
    match (k / nsites) mod 3 with
    | 0 when site = 0 && (k / 9) mod 4 = 0 -> administer (k / 9)
    | 0 -> generate site (k / 9)
    | 1 -> deliver f site
    | _ -> beacon_and_compact f site
  in
  let split = at * List.length choices / 100 in
  List.iteri (fun i k -> if i < split then step k) choices;
  let old_copy = f.sites.(joiner) in
  if not resurrect then f.down <- Some joiner;
  List.iteri (fun i k -> if i >= split then step k) choices;
  if resurrect then begin
    (* in half the cases the group first settles: everything is
       delivered, then every site, the joiner included, beacons and
       compacts, so the older copy may fall behind the donor's cuts.
       Then kill the joiner: its inbox dies with it, and it comes back
       as the older copy. *)
    if at mod 4 < 2 then begin
      drain_fleet f;
      Array.iteri (fun site _ -> beacon_and_compact f site) f.sites
    end;
    f.down <- Some joiner;
    f.inbox.(joiner) <- [];
    f.sites.(joiner) <- old_copy;
    (* its peers edit on while it is down: an administrator comes back
       to a backlog, whichever branch serves it *)
    Array.iteri (fun site _ -> if site <> joiner then generate site at) f.sites
  end;
  (* the donor has integrated everything sent while the joiner was away *)
  let donor = (joiner + 1 + (at mod 2)) mod nsites in
  drain_inbox f donor;
  let run route =
    let g = { sites = Array.copy f.sites; inbox = Array.copy f.inbox; down = None } in
    let c, out = route g.sites.(joiner) g.sites.(donor) in
    g.sites.(joiner) <- c;
    send g ~src:joiner out;
    drain_fleet g;
    Array.iteri (fun site _ -> absorb_beacons g site) g.sites;
    g
  in
  let s = run by_snapshot in
  let d = run (by_delta fallbacks) in
  let converged g = Dce_sim.Convergence.(ok (check (Array.to_list g.sites))) in
  let fp = Dce_wire.Proto.content_fingerprint state_codec in
  converged s && converged d
  && Array.for_all2
       (fun a b ->
         String.equal (fp a) (fp b)
         && Vclock.equal (Controller.stable_frontier a) (Controller.stable_frontier b)
         && Controller.stable_version a = Controller.stable_version b)
       s.sites d.sites

let catch_up_properties =
  [
    Alcotest.test_case "snapshot and delta catch-up leave the same group" `Quick (fun () ->
        let fallbacks = ref 0 in
        QCheck2.Test.check_exn
          (QCheck2.Test.make ~count:300 ~name:"snapshot vs delta twin"
             ~print:(fun (l, j, resurrect, at) ->
               Printf.sprintf "%d choices, joiner %d %s at %d%%" (List.length l) j
                 (if resurrect then "resurrected" else "frozen")
                 at)
             QCheck2.Gen.(
               quad
                 (list_size (int_range 8 60) (int_range 0 100_000))
                 (int_range 0 2) bool (int_range 0 100))
             (snapshot_delta_twin fallbacks));
        Alcotest.(check bool) "some sessions took the rejoin fallback" true (!fallbacks > 0));
  ]

(* ----- exhaustive small-scope transformation properties -----

   The QCheck properties above (and in test_ot.ml) sample these spaces;
   here the same TP1/TP2/inversion statements are checked over EVERY
   document and concurrent operation set up to the bound — documents of
   model length <= 2 (length <= 3 for the pair properties in the slow
   case) over the alphabet {a, b} with hide counts <= 1.  Small-scope
   exhaustiveness and randomized depth are complementary: neither
   subsumes the other. *)

let enum_exhaustive ?bounds name f =
  Alcotest.test_case name `Quick (fun () ->
      let o = f ?bounds () in
      match o.Dce_check.Enum.failed with
      | None -> ()
      | Some c -> Alcotest.fail c)

let len3 = { Dce_check.Enum.default with Dce_check.Enum.max_len = 3 }

let enum_properties =
  [
    enum_exhaustive "TP1 holds on ALL docs (len<=2, {a,b}, hide<=1)"
      Dce_check.Enum.tp1;
    enum_exhaustive "TP2 holds on ALL docs (len<=2, {a,b}, hide<=1)"
      Dce_check.Enum.tp2;
    enum_exhaustive "IT/ET inversion holds on ALL docs (len<=2, {a,b}, hide<=1)"
      Dce_check.Enum.inversion;
    enum_exhaustive ~bounds:len3 "TP1 holds on ALL docs (len<=3)" Dce_check.Enum.tp1;
    enum_exhaustive ~bounds:len3 "IT/ET inversion holds on ALL docs (len<=3)"
      Dce_check.Enum.inversion;
  ]

let () =
  Alcotest.run "dce_properties"
    [
      ("tdoc", tdoc_properties);
      ("cursor", cursor_properties);
      ("oplog", oplog_properties);
      ("policy", policy_properties);
      ("admin_log", admin_log_properties);
      ("controller", controller_properties);
      ("catch_up", catch_up_properties);
      ("enum", enum_properties);
    ]
