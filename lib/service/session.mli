(** Service sessions.

    A session holds a resident ontology, a mutable ABox store, the
    prepared queries registered so far and the content-addressed rewriting
    {!Cache} behind them.  Consistency of (T, A) is checked lazily and
    memoised per (generation, revision) — generation bumps on every load,
    revision on every effective mutation — so answering many queries over
    unchanged data runs the chase-based check once.

    Sessions are safe to share across domains: every mutation happens
    under an internal lock, and reads that feed evaluation go through
    {!freeze}, an O(1) copy-on-write snapshot of the ABox
    ({!Obda_data.Abox.snapshot}).  An [ANSWER]/[BATCH] evaluated via
    {!answer_at} sees exactly the frozen revision, no matter how many
    [ASSERT]/[RETRACT] writers advance the live store concurrently. *)

module Omq := Obda_rewriting.Omq

type t

val create :
  ?budget:Obda_runtime.Budget.t ->
  ?cache_entries:int ->
  ?cache_weight:int ->
  ?jobs:int ->
  unit -> t
(** A fresh session with an empty ABox and no ontology.  [budget] is the
    session-wide resource envelope ({!budget}); [cache_entries] /
    [cache_weight] bound the rewriting cache.  [jobs] (default 1) is the
    evaluation parallelism: with [jobs > 1] a worker {!Obda_runtime.Pool}
    is created on first use and every {!answer_at} (so every query of
    the serve loop's [ANSWER] and [BATCH] verbs) evaluates on it — answers are byte-identical to
    [jobs = 1].  The network server requires [jobs = 1] (it parallelises
    across connections instead; the pool's [run] is not reentrant).
    Raises [Invalid_argument] when [jobs < 1]. *)

val budget : t -> Obda_runtime.Budget.t
val cache : t -> Cache.t
val tbox : t -> Obda_ontology.Tbox.t option
val abox : t -> Obda_data.Abox.t

val jobs : t -> int

val close : t -> unit
(** Shut down the worker pool, if one was created.  The session remains
    usable: the next evaluation recreates it.  Idempotent. *)

val count_request : t -> unit
val requests : t -> int

val load_ontology : t -> Obda_ontology.Tbox.t -> unit
(** Replace the resident ontology.  Drops all prepared queries (they were
    rewritten against the old TBox), bumps the generation and clears the
    consistency memo; the rewriting cache survives, since its keys digest
    the TBox. *)

val load_data : t -> Obda_data.Abox.t -> unit
(** Replace the data store (bumps the generation). *)

val assert_fact : t -> Obda_data.Abox.fact -> bool
(** Add one fact; [false] if it was already present (no revision bump). *)

val retract_fact : t -> Obda_data.Abox.fact -> bool
(** Remove one fact; [false] if it was absent. *)

val assert_facts : t -> Obda_data.Abox.fact list -> int * int
(** Add a list of facts atomically — one lock acquisition, so a concurrent
    {!freeze} observes either none or all of them.  Returns [(added,
    atoms)]: the number actually added and the post-apply store size,
    both observed under the lock so the pair is consistent even with
    concurrent writers. *)

val retract_facts : t -> Obda_data.Abox.fact list -> int * int
(** Remove a list of facts atomically; returns [(removed, atoms)] as for
    {!assert_facts}. *)

(** {1 Snapshots} *)

type snapshot
(** A frozen view of the session's data: the copy-on-write ABox snapshot,
    its revision, the generation and the TBox it was taken under.  Reading
    a snapshot needs no synchronisation. *)

val freeze : t -> snapshot
(** Take a snapshot of the current store (O(1); under the session lock).
    Guarded by the [abox.snapshot] fault site.  Updates the served
    revision span reported by {!frozen_span}. *)

val snapshot_abox : snapshot -> Obda_data.Abox.t
val snapshot_revision : snapshot -> int

val frozen_span : t -> (int * int) option
(** [Some (lo, hi)] — the smallest and largest ABox revision ever handed
    out by {!freeze}; [None] before the first freeze.  The [STATS] server
    rows render this as the snapshot revision span. *)

val consistent_at : t -> snapshot -> bool
(** Whether (T, A) is consistent at the snapshot's revision, from the
    (generation, revision) memo when available, recomputed on the frozen
    tables (under a [chase.consistency] span) otherwise.  With no ontology
    loaded this is trivially [true]. *)

val consistent : t -> bool
(** {!consistent_at} on a fresh {!freeze} of the live store. *)

val consistency_cached : t -> bool option
(** The memoised verdict for the live store's current (generation,
    revision), or [None] if the next {!consistent} call will recompute. *)

val prepare :
  ?budget:Obda_runtime.Budget.t ->
  t ->
  name:string ->
  ?algorithm:Omq.algorithm ->
  Obda_cq.Cq.t ->
  Prepared.t * [ `Hit | `Miss ]
(** Parse-free half of [PREPARE]: classify, rewrite through the cache and
    register under [name] (replacing any previous binding), all under the
    session lock.  Raises [Obda_error (Internal _)] when no ontology is
    loaded. *)

val find_prepared : t -> string -> Prepared.t option
val prepared_names : t -> string list

val answer_at :
  ?budget:Obda_runtime.Budget.t ->
  t -> Prepared.t -> snapshot -> Obda_syntax.Symbol.t list list
(** Certain answers of a prepared query over the frozen snapshot: the
    memoised consistency check at the snapshot's revision, then NDL
    evaluation of the stored rewriting — no re-parsing, no re-rewriting,
    and no lock held during evaluation.  On inconsistent (T, A), every
    tuple over ind(A) of the query's arity, per the convention at the end
    of Section 2 of the paper. *)

val answer :
  ?budget:Obda_runtime.Budget.t -> t -> Prepared.t -> Obda_syntax.Symbol.t list list
(** {!answer_at} on a fresh {!freeze} of the live store. *)

val set_stats_hook : t -> (unit -> (string * string) list) -> unit
(** Register extra rows appended to {!stats} — the network server's
    uptime/connection/shed/revision-span rows.  Plain sessions have no
    hook, so existing [STATS] fixtures keep their exact row count. *)

val uptime : t -> float
(** Seconds since the session was created — the [PING] verb's uptime. *)

(** {1 Durability}

    A session with a WAL hook logs every effective mutation {e before}
    applying it, under the session lock: a hook that raises (a full disk,
    an injected [wal.append]/[wal.sync] fault) leaves the store untouched
    and surfaces as that request's [ERR], so a client-acknowledged
    mutation is always a logged one. *)

type wal_hook = {
  on_mutation : Wal.mutation -> revision:int -> unit;
      (** called under the session lock with the effective mutation (the
          deduplicated facts that will actually change the store; the full
          TBox/ABox for loads) and the post-mutation revision *)
  wal_rows : unit -> (string * string) list;
      (** the [server.wal.*] rows appended to {!stats} (called under the
          session lock) *)
}

val set_wal_hook : t -> wal_hook -> unit
(** Install the durability hook.  Install it {e after} restoring
    recovered state into the session, or the restore would re-log its own
    replay. *)

val clear_wal_hook : t -> unit

val with_checkpoint_state :
  t ->
  (tbox:Obda_ontology.Tbox.t option ->
  abox:Obda_data.Abox.t ->
  prepared:(string * Omq.algorithm * string) list ->
  'a) ->
  'a
(** Run [f] under the session lock with the live state: the TBox, the
    ABox (not a copy — [f] must only read it) and the prepared registry
    as (name, algorithm, query text) triples sorted by name.  This is the
    checkpoint capture: because WAL appends also run under the lock, a
    checkpoint written inside [f] can truncate the log with no append
    lost in between. *)

val stats : t -> (string * string) list
(** Observable session state as ordered key/value pairs (the [STATS]
    verb): request count, ontology/data sizes, data revision, consistency
    memo state, prepared count and cache statistics — plus the rows of the
    {!set_stats_hook} hook, when one is registered. *)
