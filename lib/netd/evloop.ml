(* Readiness via poll(2): see evloop_stubs.c for why not select(2). *)

let rd_bit = 1 (* shared with evloop_stubs.c *)
let wr_bit = 2

external poll_fds : int array -> int array -> int array -> int -> int
  = "dce_evloop_poll"

(* Unix.file_descr is physically an int on Unix systems; this library
   is Unix-only (it forks, binds loopback sockets, ...) so the
   representation change is safe. *)
let fd_int (fd : Unix.file_descr) : int = Obj.magic fd

let wait ?(timeout_ms = 0) ~read ~write () =
  (* one pollfd per distinct fd, with the union of the requested bits *)
  let tbl : (int, Unix.file_descr * int) Hashtbl.t = Hashtbl.create 64 in
  let add bit fd =
    let k = fd_int fd in
    match Hashtbl.find_opt tbl k with
    | Some (_, bits) -> Hashtbl.replace tbl k (fd, bits lor bit)
    | None -> Hashtbl.add tbl k (fd, bit)
  in
  List.iter (add rd_bit) read;
  List.iter (add wr_bit) write;
  let n = Hashtbl.length tbl in
  let fds = Array.make n 0
  and events = Array.make n 0
  and revents = Array.make n 0
  and handles = Array.make n Unix.stdin in
  let i = ref 0 in
  Hashtbl.iter
    (fun k (fd, bits) ->
      fds.(!i) <- k;
      events.(!i) <- bits;
      handles.(!i) <- fd;
      incr i)
    tbl;
  let ready = poll_fds fds events revents timeout_ms in
  if ready <= 0 then ([], [])
  else begin
    let rd = ref [] and wr = ref [] in
    for i = 0 to n - 1 do
      if revents.(i) land rd_bit <> 0 && events.(i) land rd_bit <> 0 then
        rd := handles.(i) :: !rd;
      if revents.(i) land wr_bit <> 0 && events.(i) land wr_bit <> 0 then
        wr := handles.(i) :: !wr
    done;
    (!rd, !wr)
  end

let sleep_ms ms = if ms > 0 then ignore (wait ~timeout_ms:ms ~read:[] ~write:[] ())
