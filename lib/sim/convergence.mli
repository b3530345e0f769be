(** Oracles over a quiescent session.

    These are the paper's correctness criteria, checkable after a
    simulation flushes: every site holds the same document and policy, no
    request is left tentative, and all sites agree on every request's
    fate.  A violation means a security hole of exactly the kind the
    paper's Figs. 2–4 illustrate. *)

open Dce_core

(** {b Documents are compared modulo collapse.}  A site collapses the
    cells only compacted requests touched ([Controller.compact]), at
    its own compaction points, so two converged sites may hold the
    same cell collapsed at one and not at the other.  Two documents
    agree when ([Dce_ot.Tdoc.equal_modulo_collapse]):
    - their model lengths are equal;
    - every cell has the same content and visibility;
    - hide counts are equal where both cells count more than one;
    - every write both cells still hold (by tag) has the same value
      and retraction count.

    A cell collapsed at one site can take new writes afterwards, so
    two cells that both hold overlay records need not hold the same
    writes; what they share must agree.  [Dce_ot.Tdoc.equal_model]
    stays strict for the transformation sweeps, which never collapse. *)

type report = {
  documents_agree : bool;
      (** equal models modulo collapse (hence equal visible texts) *)
  versions_agree : bool;
  policies_agree : bool;  (** same decisions: compared structurally *)
  queues_empty : bool;
  no_tentative_left : bool;
  flags_agree : bool;  (** every request has the same flag at every site *)
}

val check : char Controller.t list -> report
(** Degenerate groups (empty and single-site lists) are trivially
    convergent and yield an all-true report. *)

val ok : report -> bool

val pp : Format.formatter -> report -> unit

val explain : char Controller.t list -> string option
(** When the oracles are violated, a one-line diagnosis naming the first
    divergent site pair and the differing fragment — the first model cell
    where the documents part ways (with both visible texts), the first
    policy decision that disagrees, the site with queued or tentative
    requests, or the first request whose fate the sites dispute.  [None]
    when every oracle holds (and always for degenerate groups). *)

val pp_diff : Format.formatter -> char Controller.t list -> unit
(** {!explain}, or ["all oracles hold"]. *)
