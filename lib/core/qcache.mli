(** Cross-query caching for repeated-query serving.

    Production workloads repeat the same pattern skeletons with different
    parameters ({!Bpq_pattern.Template}); the paper's guarantee — a
    bounded [G_Q] independent of [|G|] — makes the per-query work small,
    and this module stops re-paying even that across queries.  Three
    tiers, consulted top-down:

    + {b plan cache} — [Ebchk.check] + [Qplan.generate] memoised per
      pattern {e shape}: keyed by {!Bpq_access.Schema.stamp} plus an exact
      structural key (labels and edges, predicates excluded), with a
      second map keyed by the canonical {!Bpq_pattern.Pattern.fingerprint}
      so renumbered isomorphic shapes share one planning run (the
      canonical plan is renumbered through the canonical permutation on
      reuse).  Negative results (not effectively bounded) are cached too.
    + {b fetch cache} — a bounded LRU over raw index lookups
      ({!Fetch_cache}), shared by every evaluation through this value, so
      overlapping [G_Q] fragments are fetched once.
    + {b result cache} — full answers keyed by schema stamp, the exact
      pattern {e including} predicates, and the match limit; invalidated
      by graph deltas through per-label generations ({!note_delta}), so a
      delta only evicts answers whose patterns use an affected label —
      irrelevant deltas keep entries warm.

    {b Answer fidelity.}  For repeated shapes with unchanged node
    numbering — every instantiation of one template, and any query asked
    twice — answers are byte-identical to uncached evaluation at every
    capacity, including 0 and 1 (pinned by the property tests).  When a
    plan is borrowed across a {e nontrivial renumbering} of an isomorphic
    shape, the borrowed plan may differ from the directly generated one in
    tie-breaking; the answer is then the same match {e set} (any valid
    plan yields [Q(G_Q) = Q(G)]) but subgraph matches may enumerate in a
    different order than a cold run would produce.

    {b Domain safety.}  One [Qcache.t] may be used from every worker of a
    {!Bpq_util.Pool} and from any systhread.  The plan and fetch tiers
    keep one shard (plan maps, fetch LRU, plan counters) {e per domain},
    created on first use under a mutex and touched only by its owning
    domain afterwards — no locks on their hot path.  The result tier is
    one table shared by all domains under a mutex, held for a hash probe
    or an insert and never across an evaluation, so an answer computed
    on one domain serves every caller on every other (the serve daemon
    probes it from its connection threads, {!probe}).  {!stats} merges
    the shards' counters with the shared ones.  {!note_delta} mutates
    shared invalidation state and must not run concurrently with
    evaluations (apply deltas between serving batches, as
    {!Incremental} does).

    {b Lineage.}  A cache follows one schema lineage: a {!Bpq_access.Schema.build}
    result and its [apply_delta] descendants.  Evaluating a superseded
    ancestor through the same cache after {!note_delta} is unsupported
    (the generations have moved on). *)

open Bpq_util
open Bpq_graph
open Bpq_pattern
open Bpq_access

type t

val create :
  ?plan_capacity:int -> ?fetch_capacity:int -> ?result_capacity:int -> unit -> t
(** Capacities are entry counts (defaults 4096 / 65536 / 1024): the plan
    and fetch capacities hold per domain shard, the result capacity for
    the one shared table.  Capacity 0 disables the corresponding tier. *)

val of_megabytes : int -> t
(** Size the tiers from a memory budget, the CLI's [--cache MB] knob: the
    bulk goes to the fetch tier (≈ 384 bytes per cached bucket assumed),
    a slice to results.  @raise Invalid_argument when [mb <= 0] (the CLI
    maps 0 to "no cache"). *)

type answer = Bounded_eval.answer =
  | Matches of int array list  (** Subgraph semantics. *)
  | Relation of int array array  (** Simulation semantics. *)

val plan_for :
  t -> ?costs:Costs.t -> Actualized.semantics -> Schema.t -> Pattern.t -> Plan.t option
(** Plan-tier [Bounded_eval.plan_for]: one [Ebchk] + [Qplan] run per
    (stamp, shape, semantics), then cache hits.  [None] (not effectively
    bounded) is cached as well.  [costs] orders a freshly generated plan
    ({!Qplan.generate}); cached plans are served as stored — all
    orderings carry identical operations and bounds, so mixing callers
    with and without a cost model stays sound. *)

val eval_plan :
  t ->
  ?pool:Pool.t ->
  ?deadline:Timer.deadline ->
  ?limit:int ->
  Schema.t ->
  Plan.t ->
  answer
(** Result-tier + fetch-tier evaluation of an already-generated plan.
    Raises [Timer.Timeout] like {!Bounded_eval} (nothing is stored then);
    a result-cache hit returns without touching graph or indexes.
    [pool] parallelises a miss's evaluation within the query
    ({!Bounded_eval}); answers — and hence cached entries — are
    byte-identical at every pool size, so warm hits serve runs with any
    [BPQ_JOBS] setting. *)

(** {1 Result tier, probe and evaluate separately}

    {!eval_plan_with} is {!probe} followed, on a miss, by {!eval_miss}.
    The serve daemon calls the two apart: it probes on the connection
    thread before any planning, answers a hit there, and hands only a
    miss to the pool. *)

type hit
(** A live result-tier entry. *)

type miss
(** What a missed probe learnt: the key to store under and whether an
    entry was found stale. *)

type lookup =
  | Hit of hit
  | Miss of miss

val probe :
  t -> ?limit:int -> Actualized.semantics -> Exec.source -> Pattern.t -> lookup
(** Look the exact query up in the result tier, validating the entry's
    label generations against the source's (a stale entry is dropped).
    Counts [result_hits] on a hit; a miss counts nothing until
    {!eval_miss} runs, so a lookup that is never evaluated — a
    coalesced follower, an unbounded pattern — leaves [result_misses]
    and [result_stale] as they were.  Needs no plan. *)

val hit_answer : hit -> answer

val hit_bytes : hit -> (answer -> string) -> string
(** [hit_bytes h encode] is [encode (hit_answer h)], computed on the
    first call for this entry and memoised on it.  Entries that are
    never hit are never encoded. *)

val eval_miss :
  t -> ?pool:Pool.t -> ?deadline:Timer.deadline -> miss -> Exec.source -> Plan.t -> answer
(** Evaluate a missed query (with the probe's limit) through the fetch
    tier and store the answer.  Counts [result_misses], or
    [result_stale] when the probe found a stale entry.  The plan must be
    the probed pattern's; the source may be a later slot of the same
    query's server (the key is rebuilt if its stamp differs). *)

val eval :
  t ->
  ?pool:Pool.t ->
  ?costs:Costs.t ->
  ?deadline:Timer.deadline ->
  ?limit:int ->
  Actualized.semantics ->
  Schema.t ->
  Pattern.t ->
  answer option
(** {!plan_for} + {!eval_plan}; [None] when not effectively bounded. *)

(** {1 Source-first variants}

    The same three tiers against any {!Exec.source} — plans are generated
    from [src.constraints], keys carry [src.stamp].  Because snapshots
    preserve the stamp, one cache serves a schema and the paged store
    opened from its snapshot interchangeably; the schema-taking functions
    above shim through {!Exec.source_of_schema}. *)

val plan_for_with :
  t ->
  ?costs:Costs.t ->
  Actualized.semantics ->
  Exec.source ->
  Pattern.t ->
  Plan.t option

val eval_plan_with :
  t ->
  ?pool:Pool.t ->
  ?deadline:Timer.deadline ->
  ?limit:int ->
  Exec.source ->
  Plan.t ->
  answer

val eval_with :
  t ->
  ?pool:Pool.t ->
  ?costs:Costs.t ->
  ?deadline:Timer.deadline ->
  ?limit:int ->
  Actualized.semantics ->
  Exec.source ->
  Pattern.t ->
  answer option

val fetch_tier : t -> Fetch_cache.t
(** The calling domain's fetch-cache shard — for passing to
    {!Bounded_eval} / {!Exec} directly. *)

val fetch_tier_for : t -> Exec.source -> Fetch_cache.t
(** The calling domain's fetch-cache shard {e for the source's data
    version}: sources with [data_version = 0] (static snapshots) share
    the domain's main tier; write-through sources get one tier per
    version, created lazily on the owning domain, so buckets read
    through two different overlay states can never be confused — the
    race-free replacement for clearing on writes.  The two most recent
    versions stay live per shard (in-flight evaluations against the
    previous serving slot finish warm across a write swap); older ones
    are recreated cold if referenced again. *)

val flight_key :
  ?limit:int -> Actualized.semantics -> stamp:int -> Pattern.t -> string
(** Identity of an in-flight evaluation for single-flight coalescing
    ({!Bpq_core.Server}): schema stamp, semantics, canonical structural
    fingerprint, the exact nodes (label, predicate) and edges, and the
    match limit.  Two requests with equal keys are guaranteed
    byte-identical answers against the same source, so one evaluation may
    serve both; renumbered isomorphs (whose answer columns differ) never
    collide.  Pure — no cache state is read or written. *)

val note_delta : t -> Digraph.t -> Digraph.delta -> unit
(** [note_delta t g delta] — [g] is the {e pre-delta} graph.  Bumps the
    generation of every label the delta can affect (labels of changed
    edges' endpoints and of added nodes), which lazily invalidates result
    entries whose pattern uses one of them, and clears the fetch tiers
    (their buckets mirror index contents, which the delta repairs).  Plan
    entries survive: the constraint set, and hence every plan, is
    delta-invariant ({!Bpq_access.Schema.stamp}). *)

type stats = {
  plan_hits : int;
  plan_misses : int;
  fetch_hits : int;
  fetch_misses : int;
  fetch_evictions : int;
  fetch_bypasses : int;
  result_hits : int;
  result_misses : int;
  result_stale : int;  (** Entries found but invalidated by a delta. *)
  gens_bumped : int;
      (** Total per-label generation bumps recorded by {!note_delta} —
          how much delta-driven invalidation pressure the result tier has
          seen.  Write-through sources carry their own generations
          ({!Exec.source.label_gen}) and do not count here. *)
}

val stats : t -> stats
(** The shared result counters plus the others summed over all domain
    shards. *)
