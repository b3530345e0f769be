(* e2e: the end-to-end benchmark.  A hub and two editors in one process
   over loopback TCP, driven open loop from a seeded schedule.

     e2e.exe --workload W --seed S [--seconds N] [--trace 0|1]
             [--out F.json] [--spans T.jsonl] [--smoke]
         one workload; the last stdout line is the JSON result
     e2e.exe                     all workloads, each in a fresh process
     e2e.exe repeat -n 5         spread of every metric over fresh runs
     e2e.exe ab PARENT CHANGE N  alternating pairs of two builds
     e2e.exe breakdown T.jsonl   layer and request breakdown of spans
     e2e.exe smoke               every workload at reduced size

   See README.md for the workloads, the metrics and what they predict. *)

module H = Harness
module W = Workload
module T = Timing
module Json = Dce_obs.Json

(* ----- one run ----- *)

(* Set-ups per run: at least [min_setups], then more until [setup_budget_s]
   of set-up time is spent, at most [max_setups].  A set-up of a few
   milliseconds gets many samples for its median; one of seconds does not
   stretch the run. *)
let min_setups = 3
let max_setups = 25
let setup_budget_s = 1.

(* journals and --out reports of runs in progress; removed when a run ends *)
let default_run_dir = Filename.concat "bench" (Filename.concat "e2e" "_run")

let run_one ~w ~seed ~seconds ~trace ~out ~spans ~smoke =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let w = if smoke then W.smoke w else w in
  let ops_per_editor = truncate (seconds *. H.rate) + 2 in
  let inp = W.inputs w ~seed ~ops_per_editor in
  let tm = T.create ~on:trace ~keep:(spans <> None) in
  let run_dir = Filename.concat default_run_dir (string_of_int (Unix.getpid ())) in
  (* set up repeatedly and keep the last: set-up cost is reported as a
     median, and the measured run starts from the same state each time *)
  let rec setups i acc =
    T.reset tm;
    let cmetrics = if trace then Some (Dce_obs.Metrics.create ()) else None in
    let r, s =
      H.setup ~w ~inp ~tm ~cmetrics ~seed ~run_dir:(Filename.concat run_dir (string_of_int i))
    in
    let acc = s :: acc in
    let spent = List.fold_left ( +. ) 0. acc in
    if
      smoke || r.H.errors <> [] || i + 1 >= max_setups
      || (i + 1 >= min_setups && spent >= setup_budget_s)
    then (r, cmetrics, acc)
    else begin
      H.teardown r;
      Gc.compact ();
      setups (i + 1) acc
    end
  in
  let r, cmetrics, setup_times = setups 0 [] in
  if r.H.errors = [] then H.probes r;
  Gc.compact ();
  let calls0 = T.calls tm in
  let win =
    if r.H.errors = [] then H.window r ~seconds else { H.wall_s = 1.; cpu_s = 0. }
  in
  let window_calls = T.calls tm - calls0 in
  let v = H.verdict r in
  H.teardown r;
  (try Unix.rmdir run_dir with Unix.Unix_error _ -> ());
  let e2e = Report.end_to_end r ~setups:(List.rev setup_times) in
  let missing =
    List.filter_map
      (fun (x : Report.metric) ->
        if Float.is_nan x.Report.value || x.Report.value <= 0. then
          Some ("no measurement for " ^ x.Report.name)
        else None)
      e2e
  in
  let problems = v.H.problems @ missing in
  let timings = Report.timings r ~win ~failed:v.H.failed in
  let layers =
    if trace then
      let counters =
        match cmetrics with Some m -> Dce_obs.Metrics.counters m | None -> []
      in
      timings @ Report.per_layer r ~win ~counters ~span_ns:(T.calibrate tm) ~window_calls
    else timings
  in
  let correct = problems = [] && v.H.failed = 0 in
  Printf.printf "workload %s  seed %d  window %.1fs  attempted %d  failed %d  denied %d  offline %d\n"
    w.W.name seed win.H.wall_s r.H.attempted v.H.failed r.H.denied r.H.offline;
  List.iter (fun p -> Printf.printf "  problem: %s\n" p) problems;
  let late = Report.pct r.H.late 99. and prop99 = Report.pct r.H.prop 99. in
  (* the run still counts as correct: an overloaded or SLO-breaking run
     is a performance result, not a wrong one *)
  Printf.printf "  generator lateness p99 %.3f ms%s; prop p99 %.3f ms %s the 100 ms SLO\n"
    late
    (if late > 10. then " (overloaded: this run does not count)" else "")
    prop99
    (if prop99 <= 100. then "meets" else "breaks");
  Printf.printf "  set-ups (s):%s\n"
    (String.concat "" (List.rev_map (Printf.sprintf " %.6f") setup_times));
  Report.print e2e;
  Report.print layers;
  (match spans with
   | Some path ->
     Out_channel.with_open_text path (fun oc ->
         Printf.fprintf oc "{\"workload\":%S,\"wall_s\":%.6f,\"window_t0\":%d,\"window_t1\":%d}\n"
           w.W.name win.H.wall_s r.H.window_t0 r.H.window_t1;
         T.write_spans tm oc)
   | None -> ());
  let metrics = if trace then layers else e2e in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int (max 1 r.H.attempted));
        ("failed", Json.Int v.H.failed);
        ("metrics", Report.to_json metrics);
      ]
  in
  (match out with
   | Some path ->
     Out_channel.with_open_text path (fun oc ->
         output_string oc
           (Json.to_string
              (Json.Obj
                 [
                   ("workload", Json.String w.W.name);
                   ("seed", Json.Int seed);
                   ("correct", Json.Bool correct);
                   ("problems", Json.List (List.map (fun p -> Json.String p) problems));
                   ("end_to_end", Report.to_json e2e);
                   ("per_layer", Report.to_json layers);
                 ]));
         output_char oc '\n')
   | None -> ());
  (try Unix.rmdir (Filename.dirname run_dir) with Unix.Unix_error _ -> ());
  print_endline (Json.to_string result);
  if correct then 0 else 1

(* ----- child processes ----- *)

let run_child ?(exe = Sys.executable_name) args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, out)

let last_json out =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)) with
  | l :: _ -> (match Json.of_string l with Ok j -> Some j | Error _ -> None)
  | [] -> None

(* The values of a [{name: {"value", "unit"}}] object under [key]. *)
let values key j =
  match Json.member key j with
  | Some (Json.Obj fields) ->
    List.filter_map
      (fun (name, v) ->
        match Json.member "value" v with
        | Some (Json.Float f) -> Some (name, f)
        | Some (Json.Int i) -> Some (name, float_of_int i)
        | _ -> None)
      fields
  | _ -> []

let run_args ~w ~seed ~seconds ~trace ~smoke =
  [ "--workload"; w.W.name; "--seed"; string_of_int seed; "--seconds";
    Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
  @ if smoke then [ "--smoke" ] else []

(* One child run with an --out report, removed once read: the exit
   status, stdout and the report (every metric of the run). *)
let run_report ?exe args =
  H.mkdir_p default_run_dir;
  let file = Filename.concat default_run_dir (Printf.sprintf "report-%d.json" (Unix.getpid ())) in
  let status, out = run_child ?exe (args @ [ "--out"; file ]) in
  let report =
    match In_channel.with_open_text file In_channel.input_all with
    | text -> (
      Sys.remove file;
      match Json.of_string text with Ok j -> Some j | Error _ -> None)
    | exception Sys_error _ -> None
  in
  (try Unix.rmdir default_run_dir with Unix.Unix_error _ -> ());
  (status, out, report)

let report_values = function
  | Some j -> values "end_to_end" j @ values "per_layer" j
  | None -> []

(* Every workload in sequence, each in a fresh process. *)
let run_all ~seed ~seconds ~trace =
  List.fold_left
    (fun code w ->
      let status, out = run_child (run_args ~w ~seed ~seconds ~trace ~smoke:false) in
      print_string out;
      flush stdout;
      match status with Unix.WEXITED 0 -> code | _ -> 1)
    0 W.all

(* ----- BENCHMARK.json ----- *)

type metric = { d_name : string; d_bound : float option; d_lower : bool }

type declared = { run_seconds : float; end_to_end : metric list; per_layer : metric list }

let number = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let declared path =
  match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j ->
    let section key =
      match Json.member key j with
      | Some (Json.List l) ->
        List.filter_map
          (fun x ->
            match Json.member "name" x with
            | Some (Json.String d_name) ->
              Some
                {
                  d_name;
                  d_bound = number (Json.member "bound" x);
                  d_lower = Json.member "better" x <> Some (Json.String "higher");
                }
            | _ -> None)
          l
      | _ -> []
    in
    {
      run_seconds = Option.value (number (Json.member "run_seconds" j)) ~default:30.;
      end_to_end = section "end_to_end";
      per_layer = section "per_layer";
    }

(* ----- repeat: spread of each metric over n fresh runs ----- *)

let repeat ~n ~seed ~trace ~bench ~workloads =
  let { run_seconds = seconds; end_to_end = e2e; _ } = declared bench in
  let over = ref [] in
  List.iter
    (fun w ->
      let runs =
        List.init n (fun i ->
            let status, _, report =
              run_report (run_args ~w ~seed:(seed + i) ~seconds ~trace ~smoke:false)
            in
            (match status with
             | Unix.WEXITED 0 -> ()
             | _ -> over := Printf.sprintf "%s seed %d: run failed" w.W.name (seed + i) :: !over);
            report_values report)
      in
      Printf.printf "%s (%d runs, seeds %d..%d)\n" w.W.name n seed (seed + n - 1);
      Printf.printf "  %-34s %12s %12s %12s %8s %6s\n" "metric" "median" "q1" "q3" "spread" "bound";
      let names = match runs with r :: _ -> List.map fst r | [] -> [] in
      List.iter
        (fun name ->
          let xs =
            Array.of_list (List.filter_map (fun r -> List.assoc_opt name r) runs)
          in
          let q1, med, q3 = Stats.quartiles xs in
          let spread = if med = 0. then 0. else (q3 -. q1) /. Float.abs med in
          let bound =
            List.find_map (fun d -> if d.d_name = name then d.d_bound else None) e2e
          in
          let flag =
            match bound with
            | Some b when spread > b ->
              over := Printf.sprintf "%s %s spread %.3f > bound %.3f" w.W.name name spread b
                      :: !over;
              "  OVER"
            | _ -> ""
          in
          Printf.printf "  %-34s %12.4f %12.4f %12.4f %8.3f %6s%s\n" name med q1 q3 spread
            (match bound with Some b -> Printf.sprintf "%.2f" b | None -> "-")
            flag)
        names;
      flush stdout)
    workloads;
  List.iter (fun o -> Printf.printf "FAIL: %s\n" o) (List.rev !over);
  if !over = [] then 0 else 1

(* ----- ab: alternating pairs of two builds ----- *)

(* Pair i runs seed [seed + i] on both builds, the parent first on even
   pairs and the change first on odd ones, so drift of the machine over
   the session falls on both sides alike. *)
let ab ~parent ~change ~n ~seed ~bench ~workloads =
  let { run_seconds = seconds; end_to_end; per_layer } = declared bench in
  let failed = ref false in
  let run exe w seed =
    match run_report ~exe (run_args ~w ~seed ~seconds ~trace:false ~smoke:false) with
    | Unix.WEXITED 0, _, (Some _ as report) -> report_values report
    | _ ->
      Printf.printf "%s: %s seed %d failed\n%!" exe w.W.name seed;
      failed := true;
      []
  in
  Printf.printf "%-16s %-20s %32s %32s %6s\n" "workload" "metric" "parent q1/med/q3"
    "change q1/med/q3" "won";
  List.iter
    (fun w ->
      let pairs =
        List.init n (fun i ->
            let seed = seed + i in
            if i mod 2 = 0 then
              let p = run parent w seed in
              (p, run change w seed)
            else
              let c = run change w seed in
              (run parent w seed, c))
      in
      List.iter
        (fun d ->
          let side f = List.filter_map (fun pair -> List.assoc_opt d.d_name (f pair)) pairs in
          if side fst <> [] then
          let quartiles xs =
            let q1, med, q3 = Stats.quartiles (Array.of_list xs) in
            Printf.sprintf "%.4g/%.4g/%.4g" q1 med q3
          in
          (* ties count for neither side *)
          let won =
            List.length
              (List.filter
                 (fun (p, c) ->
                   match (List.assoc_opt d.d_name p, List.assoc_opt d.d_name c) with
                   | Some a, Some b -> if d.d_lower then b < a else b > a
                   | _ -> false)
                 pairs)
          in
          Printf.printf "%-16s %-20s %32s %32s %6.2f\n%!" w.W.name d.d_name
            (quartiles (side fst)) (quartiles (side snd))
            (float_of_int won /. float_of_int n))
        (* an untraced run reports the timings among the per-layer metrics *)
        (end_to_end @ per_layer))
    workloads;
  if !failed then 1 else 0

(* ----- smoke: reduced sizes, correctness and metric names only ----- *)

let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let smoke ~bench =
  let { end_to_end = e2e; per_layer = layers; _ } = declared bench in
  let problems = ref [] in
  let note p = problems := p :: !problems in
  List.iter
    (fun w ->
      (* one traced run writes both metric sets to its --out report *)
      let status, out, report =
        run_report (run_args ~w ~seed:1 ~seconds:1. ~trace:true ~smoke:true)
      in
      (match status with
       | Unix.WEXITED 0 -> ()
       | _ -> note (Printf.sprintf "%s: exit status not 0\n%s" w.W.name out));
      (match last_json out with
       | None -> note (w.W.name ^ ": no JSON result")
       | Some j ->
         if Json.member "correct" j <> Some (Json.Bool true) then
           note (w.W.name ^ ": not correct");
         if Json.member "failed" j <> Some (Json.Int 0) then note (w.W.name ^ ": failures"));
      (match report with
       | None -> note (w.W.name ^ ": no --out report")
       | Some report ->
         List.iter
           (fun (section, wanted) ->
             let got = List.map fst (values section report) in
             List.iter
               (fun d ->
                 if not (List.mem d.d_name got) then
                   note (Printf.sprintf "%s: metric %s missing" w.W.name d.d_name))
               wanted;
             List.iter
               (fun name ->
                 if not (valid_name name) then
                   note (Printf.sprintf "%s: bad metric name %S" w.W.name name))
               got)
           [ ("end_to_end", e2e); ("per_layer", layers) ]);
      Printf.printf "smoke %s done\n%!" w.W.name)
    W.all;
  List.iter (fun p -> Printf.printf "FAIL: %s\n" p) (List.rev !problems);
  if !problems = [] then 0 else 1

(* ----- command line ----- *)

open Cmdliner

let workload_conv =
  let parse s =
    match W.find s with
    | Some w -> Ok w
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown workload %S (one of %s)" s
             (String.concat ", " (List.map (fun w -> w.W.name) W.all))))
  in
  Arg.conv (parse, fun ppf w -> Format.pp_print_string ppf w.W.name)

let trace_conv =
  let parse = function
    | "0" -> Ok false
    | "1" -> Ok true
    | s -> Error (`Msg (Printf.sprintf "--trace takes 0 or 1, not %S" s))
  in
  Arg.conv (parse, fun ppf b -> Format.pp_print_string ppf (if b then "1" else "0"))

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Seed of every input.")

let seconds =
  Arg.(value & opt float 30. & info [ "seconds" ] ~docv:"S" ~doc:"Length of the measured window.")

let trace =
  Arg.(value & opt trace_conv false
       & info [ "trace" ] ~docv:"0|1"
           ~doc:"1: time every layer call and report the per-layer metrics instead of \
                 the end-to-end ones.")

let bench =
  Arg.(value & opt string "BENCHMARK.json"
       & info [ "bench" ] ~docv:"FILE" ~doc:"The benchmark definition (names and bounds).")

let default_term =
  let workload =
    Arg.(value & opt (some workload_conv) None
         & info [ "workload" ] ~docv:"W" ~doc:"Run one workload; omitted, run all of them.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Also write every metric of the run here.")
  in
  let spans =
    Arg.(value & opt (some string) None
         & info [ "spans" ] ~docv:"FILE"
             ~doc:"With --trace 1: write every span as JSONL here (see $(b,breakdown)).")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ] ~doc:"Reduced sizes and one set-up: a quick check.")
  in
  let go workload seed seconds trace out spans smoke =
    match workload with
    | Some w -> run_one ~w ~seed ~seconds ~trace ~out ~spans ~smoke
    | None -> run_all ~seed ~seconds ~trace
  in
  Term.(const go $ workload $ seed $ seconds $ trace $ out $ spans $ smoke)

let workloads =
  Arg.(value & opt_all workload_conv W.all
       & info [ "workload" ] ~docv:"W" ~doc:"Workload to run (repeatable; default: all).")

let repeat_cmd =
  let n = Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Runs per workload.") in
  Cmd.v
    (Cmd.info "repeat" ~doc:"Median, quartiles and spread of every metric over N runs")
    Term.(
      const (fun n seed trace bench workloads -> repeat ~n ~seed ~trace ~bench ~workloads)
      $ n $ seed $ trace $ bench $ workloads)

let ab_cmd =
  let exe i docv =
    Arg.(required & pos i (some string) None & info [] ~docv ~doc:"An e2e.exe built from one commit.")
  in
  let n = Arg.(required & pos 2 (some int) None & info [] ~docv:"N" ~doc:"Pairs per workload.") in
  Cmd.v
    (Cmd.info "ab"
       ~doc:"N alternating pairs of two builds per workload: each side's quartiles and the \
             fraction of pairs the change won, per end-to-end metric")
    Term.(
      const (fun parent change n seed bench workloads ->
          ab ~parent ~change ~n ~seed ~bench ~workloads)
      $ exe 0 "PARENT" $ exe 1 "CHANGE" $ n $ seed $ bench $ workloads)

let breakdown_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"SPANS") in
  Cmd.v (Cmd.info "breakdown" ~doc:"Layer self times and request segments of a span file")
    Term.(const Breakdown.run $ file)

let smoke_cmd =
  Cmd.v (Cmd.info "smoke" ~doc:"Every workload at reduced size: correctness and metric names")
    Term.(const (fun bench -> smoke ~bench) $ bench)

let () =
  exit
    (Cmd.eval'
       (Cmd.group ~default:default_term
          (Cmd.info "e2e" ~doc:"End-to-end benchmark: a hub and two editors over loopback")
          [ repeat_cmd; ab_cmd; breakdown_cmd; smoke_cmd ]))
