(** A reusable pool of worker domains for data-parallel evaluation.

    A pool of [jobs] workers keeps [jobs - 1] domains parked between calls;
    the calling domain participates as worker 0.  With [jobs = 1] no
    domains exist at all and {!run} degenerates to a plain call — the
    guarantee behind "[--jobs 1] is byte-identical to the sequential
    engine".

    The pool makes no scheduling decisions: {!run} hands every worker its
    index and the caller is responsible for partitioning the work (the NDL
    evaluator hash-partitions the facts of each clause's first body atom).

    The symbol interner and the telemetry sink are mutex-guarded and
    histograms are lock-free, so worker bodies may intern, observe and
    record straight into shared targets; nothing runs at the barrier.  The fault registry's activation counters are still
    single-domain: deterministic fault plans require sequential request
    execution, and the evaluator keeps [observe:false] inside workers so
    per-clause counters stay exact. *)

type t

val create : jobs:int -> t
(** Spawn a pool of [jobs] workers ([jobs - 1] domains).  Raises
    [Invalid_argument] when [jobs < 1]. *)

val jobs : t -> int

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f 0 .. f (jobs - 1)] concurrently, [f 0] on the
    calling domain, and returns when all have finished.  If any call
    raises, the remaining workers still run to completion (the pool stays
    reusable) and the first exception — caller's first, then by worker
    index — is re-raised.  Not reentrant: at most one [run] per pool at a
    time.  Raises [Invalid_argument] after {!shutdown}. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run [f], and {!shutdown} even on exceptions. *)
