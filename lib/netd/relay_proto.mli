(** The session envelope spoken over a relay connection.

    Each value is one {!Dce_wire.Codec} frame payload.  [Doc_snapshot],
    [Doc_delta] and [Doc_msg] carry the {!Dce_wire.Proto} encodings
    ({!encode_state} / {!encode_delta} / {!encode_message} output)
    verbatim as opaque strings: the relay fans [Doc_msg] bytes out
    without re-encoding, and stays generic over the element type.

    {b Handshake}: the client sends [Attach] naming a document (or
    [Attach_at], adding its resume point); the hub answers [Attached]
    then [Doc_snapshot] — or [Doc_delta] for a resume point its log still
    covers — after which both sides exchange [Doc_msg] and [Beacon]
    frames and keep the link alive with [Ping]/[Pong].  [Bye] announces
    an orderly close.  One connection can attach to several documents
    (send further [Attach] frames at any time); [Detach] leaves one
    document without closing the socket.  [Doc_msg.origin] is the hub id
    of the relay that first accepted the message into the federation (0
    = an ordinary editor); hubs drop frames whose origin equals their
    own id, which is what prevents forwarding loops between federated
    relays.

    Like every decoder in this repo, {!decode} never raises — the
    envelope is parsed from untrusted bytes.  An unknown tag (including
    the retired single-document ['H'], ['W'], ['S'] and ['M']) is an
    [Error], and the hub drops the peer that sent it. *)

type t =
  | Ping
  | Pong
  | Bye of string
  | Attach of { doc : string; site : int }
      (** join [doc] as [site]; repeatable per connection *)
  | Attached of { doc : string; relay_site : int; heartbeat_ms : int }
      (** answered per [Attach] *)
  | Detach of { doc : string }  (** leave one doc, keep the socket *)
  | Doc_snapshot of { doc : string; state : string }
      (** a [Proto.encode_state] blob for one document *)
  | Doc_msg of { doc : string; origin : int; msg : string }
      (** a [Proto.encode_message] blob routed to [doc]; [origin] is the
          federation loop guard (hub id of the first relay, 0 = editor)
          *)
  | Attach_at of { doc : string; site : int; resume : string }
      (** resuming attach: like [Attach] plus the joiner's resume
          point, a [Proto.encode_frontier] blob holding one beacon (the
          joiner's own clock and policy version).  The hub answers
          [Attached] then [Doc_delta] when its log still covers that
          point, or [Doc_snapshot] when it compacted past it. *)
  | Doc_delta of { doc : string; delta : string }
      (** a [Proto.encode_delta] blob: the suffix a resuming joiner
          lacks, in place of a full [Doc_snapshot] *)
  | Beacon of { doc : string; frontier : string }
      (** a [Proto.encode_frontier] blob — stability gossip.  Clients
          send their own single-entry frontier on the heartbeat cadence;
          hubs fan the per-doc aggregate to members and report it
          upstream, which is what lets every replica's stability
          frontier advance past silent peers and compact its log. *)

val encode : t -> string
(** The frame payload (unframed; the connection layer frames it). *)

val decode : string -> (t, string) result

val label : t -> string
