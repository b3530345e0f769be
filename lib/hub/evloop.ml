(* The poll(2) wait lives in {!Dce_netd.Evloop}, under every socket loop;
   this alias keeps the [Dce_hub.Evloop] name bench/e2e uses. *)
include Dce_netd.Evloop
