(** Bottom-up evaluation of datalog over a data instance.

    Every IDB predicate is fully materialised in dependence order, exactly
    like the RDFox configuration used in the paper's Appendix D (no magic
    sets).  One driver runs every stratum of {!Ndl.strata}: round 0
    evaluates the stratum's clauses with its own relations empty, and while
    a round derives new tuples the next one evaluates the stratum's rerun
    clauses — none for a nonrecursive stratum (a single pass), and for a
    recursive one (the engine accepts recursive programs, though the
    paper's rewritings never produce them) the delta variants of a
    semi-naïve fixpoint: one per in-stratum body atom, that atom probing
    the previous round's delta relation, so rounds only join against newly
    derived tuples.  Clause bodies are reordered and given per-atom access
    strategies by the cost model in {!Plan}.  [naive] is a plan choice,
    not a second engine: the written body order under {!Plan.trivial}
    (maintained-index probes only) and full re-derivation — the base
    clauses again — every round.  The number of generated tuples is
    reported, matching the "generated tuples" columns of Tables 3–5;
    [tuples_read] counts the tuples the matcher pulled from storage, the
    measure the [eval-plan] bench gates on. *)

open Obda_syntax
open Obda_data

type relation
(** A set of constant tuples of fixed arity. *)

val relation_arity : relation -> int
val relation_size : relation -> int
val relation_tuples : relation -> Symbol.t list list

type result = {
  answers : Symbol.t list list;  (** tuples of the goal relation, sorted *)
  generated_tuples : int;  (** Σ sizes of all materialised IDB relations *)
  tuples_read : int;
      (** tuples delivered from relation storage and domain sweeps;
          identical at every worker count *)
  idb_relations : relation Symbol.Map.t;
}

type plan_cache
(** Holds a compiled, planned program across runs of the same query value
    (physical identity).  A cached plan is reused until the ABox size
    drifts past a 2× threshold in either direction, at which point the
    next run replans (counted by the ["eval.plan.replans"] telemetry
    counter).  Concurrent runs sharing a cache (the server's ANSWER path)
    race only on which thread's plans get memoised: plans are immutable
    data valid for any instance, so a lost race costs duplicated planning
    work, never wrong answers. *)

val plan_cache : unit -> plan_cache
(** A fresh, empty cache — typically one per prepared query. *)

val run :
  ?pool:Obda_runtime.Pool.t ->
  ?plan:plan_cache ->
  ?naive:bool ->
  ?observe:bool ->
  ?budget:Obda_runtime.Budget.t ->
  ?edb:(Symbol.t -> int -> Symbol.t list list option) ->
  ?extra_domain:Symbol.t list ->
  ?explain:(string -> unit) ->
  Ndl.query -> Abox.t -> result
(** [plan] caches the compiled program (clause order, per-atom strategies,
    the fixpoint's delta variants) across runs; without it every run plans
    afresh.  [naive = true] selects the baseline plan: every clause body in
    its written order with maintained-index probes only, and a recursive
    stratum re-derives every clause from the full relations each round.

    [explain] receives one line per planned clause (chosen order, per-atom
    strategy, cardinality estimates) as plans are computed; a cached run
    computes no plans and emits nothing.

    [pool] parallelises every round of every stratum: clause bodies are
    evaluated concurrently by the pool's workers (the first planned atom's
    search space is hash-partitioned across workers) and the workers'
    outputs are merged once, at the round barrier.  Plans
    are computed once per clause on the main domain, so workers know every
    index position statically and perform pure reads of the shared
    relations.  Answers are byte-identical to the sequential engine for
    any worker count (relations are sets and the answer view is sorted).
    Each worker runs under a [Budget.slice] of [budget], so step/size caps
    and the wall deadline still bind globally (a budget error from a
    worker reports its slice's limits).  A pool with one worker, or no
    pool, is exactly the sequential engine.

    [observe = false] runs without touching the global telemetry sink or
    the fault registry — required when the caller itself runs on a worker
    domain (the service layer's BATCH path); those globals are
    single-domain.

    [budget] is checked on every matcher step (a budget step per visited
    search node, a size unit per materialised tuple); exhaustion raises
    [Obda_runtime.Error.Obda_error (Budget_exhausted _)]; its wall clock
    is read every 1024 steps.

    [edb] supplies tuples for extensional predicates not stored in the ABox
    (e.g. the n-ary relations of a mapped data source); it is consulted
    first, with the ABox as fallback.  [extra_domain] extends the active
    domain (⊤) beyond ind(A). *)

val answers :
  ?pool:Obda_runtime.Pool.t ->
  ?observe:bool ->
  ?budget:Obda_runtime.Budget.t ->
  ?plan:plan_cache ->
  ?naive:bool -> Ndl.query -> Abox.t -> Symbol.t list list

val boolean : Ndl.query -> Abox.t -> bool
(** For a 0-ary goal: whether the goal is derivable. *)

val explain :
  ?naive:bool ->
  ?edb:(Symbol.t -> int -> Symbol.t list list option) ->
  Ndl.query -> Abox.t -> string list
(** Evaluate the query (unobserved) and return one line per planned clause
    describing the chosen atom order and access strategies.  Evaluation is
    required for honest plans: later strata are planned against the true
    sizes of the relations the earlier ones materialised. *)

(** Testing hooks for the relation internals.  The evaluator's performance
    contract, pinned by the unit suite: an index over a position list is
    built by a full scan exactly once per relation and maintained
    incrementally by additions — semi-naïve re-rounds must not rebuild it —
    and {!relation_tuples} memoises its sorted view until the next
    mutation. *)
module Internal : sig
  val relation_create : int -> relation
  val relation_add : relation -> Symbol.t list -> bool
  val relation_lookup : relation -> int list -> Symbol.t list -> Symbol.t list list

  val index_builds : relation -> int
  (** Number of full-scan index constructions performed on this relation. *)

  val index_positions : relation -> int list list
  (** The position lists currently indexed, one entry per index. *)

  val sorted_view_memoised : relation -> bool
  (** Whether a memoised {!relation_tuples} view is currently live. *)
end
