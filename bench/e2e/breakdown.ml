(* [e2e.exe breakdown SPANS]: where a traced run's time went.

   Reads the JSONL a [--trace 1 --spans FILE] run writes (a header line
   with the window bounds, then one line per span) and prints each
   layer's self time, share of the window and call-duration percentiles,
   each cooperative request's segments (echo at the origin, in flight
   until the peer decodes it, decode, receive) and the closure: how much
   of the window's wall time the spans account for. *)

module Json = Dce_obs.Json

type span = { name : string; site : int; req : string; t0 : int; t1 : int; parent : int }

let field j k = match Json.member k j with Some v -> v | None -> failwith ("missing " ^ k)
let int_field j k = match field j k with Json.Int i -> i | _ -> failwith (k ^ ": not an int")
let str_field j k = match field j k with Json.String s -> s | _ -> failwith (k ^ ": not a string")

let parse line =
  match Json.of_string line with
  | Ok j -> j
  | Error e -> failwith ("bad span line: " ^ e)

let pcts xs =
  let xs = Array.of_list xs in
  (Array.length xs, Stats.percentile xs 50., Stats.percentile xs 99.)

let run path =
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] ->
    prerr_endline "breakdown: empty span file";
    2
  | header :: rest ->
    let h = parse header in
    let w0 = int_field h "window_t0" and w1 = int_field h "window_t1" in
    let wall = float_of_int (w1 - w0) in
    let spans =
      Array.of_list
        (List.map
           (fun l ->
             let j = parse l in
             {
               name = str_field j "name";
               site = int_field j "site";
               req = str_field j "req";
               t0 = int_field j "t0";
               t1 = int_field j "t1";
               parent = int_field j "parent";
             })
           rest)
    in
    let child = Array.make (Array.length spans) 0 in
    Array.iter
      (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) + (s.t1 - s.t0))
      spans;
    let inside s = s.t0 >= w0 && s.t1 <= w1 in
    let layers : (string, int ref * float list ref) Hashtbl.t = Hashtbl.create 32 in
    Array.iteri
      (fun i s ->
        if inside s then begin
          let self, durs =
            match Hashtbl.find_opt layers s.name with
            | Some x -> x
            | None ->
              let x = (ref 0, ref []) in
              Hashtbl.add layers s.name x;
              x
          in
          self := !self + (s.t1 - s.t0 - child.(i));
          durs := float_of_int (s.t1 - s.t0) /. 1e3 :: !durs
        end)
      spans;
    let rows =
      Hashtbl.fold (fun name (self, durs) acc -> (name, !self, !durs) :: acc) layers []
      |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)
    in
    Printf.printf "window %.3f s (%s)\n\n" (wall /. 1e9) (str_field h "workload");
    Printf.printf "%-30s %8s %12s %8s %12s %12s\n" "layer" "calls" "self_ms" "share" "p50_us"
      "p99_us";
    let accounted = ref 0 in
    List.iter
      (fun (name, self, durs) ->
        let n, p50, p99 = pcts durs in
        let request_level = String.starts_with ~prefix:"op." name in
        if not request_level then accounted := !accounted + self;
        Printf.printf "%-30s %8d %12.3f %8s %12.3f %12.3f\n" name n (float_of_int self /. 1e6)
          (if request_level then "-" else Printf.sprintf "%.2f%%" (100. *. float_of_int self /. wall))
          p50 p99)
      rows;
    (* request segments: spans of one request share its id *)
    let by_req : (string * string * int, span) Hashtbl.t = Hashtbl.create 4096 in
    Array.iter
      (fun s -> if s.req <> "" then Hashtbl.replace by_req (s.req, s.name, s.site) s)
      spans;
    let echo = ref [] and flight = ref [] and decode = ref [] and receive = ref [] in
    Array.iter
      (fun s ->
        if s.name = "op.echo" && inside s then begin
          echo := float_of_int (s.t1 - s.t0) /. 1e3 :: !echo;
          let peer = 1 - s.site in
          (match Hashtbl.find_opt by_req (s.req, "Proto.decode_message", peer) with
           | Some d ->
             flight := float_of_int (d.t0 - s.t1) /. 1e3 :: !flight;
             decode := float_of_int (d.t1 - d.t0) /. 1e3 :: !decode
           | None -> ());
          match Hashtbl.find_opt by_req (s.req, "Controller.receive", peer) with
          | Some rc -> receive := float_of_int (rc.t1 - rc.t0) /. 1e3 :: !receive
          | None -> ()
        end)
      spans;
    Printf.printf "\n%-30s %8s %12s %12s\n" "request segment" "n" "p50_us" "p99_us";
    List.iter
      (fun (name, xs) ->
        let n, p50, p99 = pcts xs in
        Printf.printf "%-30s %8d %12.3f %12.3f\n" name n p50 p99)
      [ ("echo (due -> sent)", !echo); ("in flight (sent -> peer decode)", !flight);
        ("decode at peer", !decode); ("receive at peer", !receive) ];
    Printf.printf "\nclosure: spans account for %.2f%% of the window's wall time\n"
      (100. *. float_of_int !accounted /. wall);
    0
