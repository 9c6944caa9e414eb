(** Canonical structural fingerprint of a machine configuration.

    Covers everything that determines future behaviour — persistent
    memory, junk-generator state, and per-process control state (status,
    results, remaining script, frame stacks with locals) — and excludes
    history bookkeeping (call ids, step counts, the recorded history):
    two configurations with equal fingerprints generate identical future
    event sequences even when reached by different interleavings.

    The representation is structural (no string building) and the hash
    is computed once at construction, so taking a fingerprint at every
    node of an exploration is affordable.  This module generalises the
    serialisation the impossibility analysis used privately; see
    {!Impossibility.Statekey} for the string-keyed compatibility layer. *)

type t

val of_sim : ?extra:int -> Sim.t -> t
(** [extra] (default 0) is mixed into the fingerprint as opaque path
    context.  The explorer passes the crash budget consumed so far:
    two equal configurations reached having spent different budgets have
    different remaining futures, so deduplicating across them would make
    search statistics depend on traversal order.  Equal to
    [seal ?extra (draft sim)]. *)

type draft
(** A fingerprint before hashing: the structural copy of a
    configuration, which {!Symmetry.canonical_draft} may still reorder
    before the hash is paid for. *)

val draft : Sim.t -> draft
(** The structural copy that {!of_sim} hashes. *)

val seal : ?extra:int -> draft -> t
(** Hash a draft into a fingerprint ([extra] as in {!of_sim}). *)

val equal : t -> t -> bool
val hash : t -> int

val to_string : t -> string
(** Printable canonical serialisation (diagnostics, string-keyed maps). *)

module Table : Hashtbl.S with type key = t

val erased_proc_hash : Sim.t -> int -> int
(** Hash of process [p]'s control state with every [Pid] value erased to
    an own/other token.  It is {e equivariant}: after renaming the
    processes by a permutation [pi], process [pi p] has the hash [p] had.
    That makes it a sound tie-breaker for partial-order choices made
    under symmetry reduction (see {!Explore}), and the key by which
    {!Symmetry.canonical} ranks processes. *)

(** Lock-free sharded visited-set over fingerprints, shared by all
    exploring domains.  Each shard is an ordered chain of
    open-addressing segments whose slots are [Atomic] and monotone
    ([None] → inserted fingerprint, never changed again); insertion
    probes the chain in one fixed global order and claims the first
    empty slot by CAS, so equal fingerprints — which share the same
    probe sequence — serialise on a single slot and [add] answers
    "fresh" exactly once per distinct fingerprint without taking a lock
    on the fast path.  Shards grow by appending doubled segments under
    a per-shard mutex. *)
module Store : sig
  type fp = t
  type t

  val create : ?shards:int -> unit -> t
  (** [shards] (default 64) is rounded up to a power of two; the shard
      is chosen by the low fingerprint-hash bits, the in-shard probe
      position by the remaining bits. *)

  val add : t -> fp -> bool
  (** [add s fp] is [true] iff [fp] was not yet in the store (it is
      recorded atomically with the test — linearizable across
      domains). *)

  val cardinal : t -> int
  (** Number of distinct fingerprints inserted. *)

  val contention : t -> int
  (** CAS insertions lost to a racing domain — a measure of shard
      contention (exported as a metric by the explorer). *)

  val shards : t -> int
  (** Actual shard count (power of two). *)

  val shard_sizes : t -> int array
  (** Per-shard insert counts, for distribution diagnostics/tests. *)
end

(** Process-id symmetry reduction: quotient the explored state space by
    the group of process permutations that provably commute with every
    machine step.  {!detect} checks the soundness conditions on the root
    configuration (identical per-process scripts up to own-pid renaming,
    pid-oblivious object declarations ({!Objdef.sym_spec}), pid-free
    junk strategy, permutations preserving the crash-enabled set);
    {!canonical} then maps a fingerprint to one representative of its
    orbit so the visited store deduplicates whole orbits.  See
    docs/model.md for the soundness argument. *)
module Symmetry : sig
  type group

  val detect : ?crashes_possible:bool -> crash_procs:int list -> Sim.t -> group option
  (** [detect sim] on the {e root} configuration: [Some g] iff every
      soundness condition holds and the resulting group is non-trivial.
      [crashes_possible] (default [true]) additionally requires every
      object's recovery programs to be pid-oblivious; pass [false] for
      crash-free exploration. *)

  val degree : group -> int
  (** Order of the group (including the identity). *)

  val canonical : group -> t -> t
  (** The orbit representative: among the group elements that sort the
      processes within each crash class by an equivariant rank — a
      pid-free summary of the control state, then {!erased_proc_hash} —
      the least permuted configuration in a structural order.  There is
      usually one such element.  Every member of an orbit yields the same
      candidate configurations and hence the same representative
      (deterministic: independent of domain, schedule or insertion
      order). *)

  val canonical_draft : group -> ?extra:int -> draft -> t
  (** [canonical_draft g ?extra d] is [canonical g (seal ?extra d)], but
      hashes only the winning arrangement, not the draft as given. *)

  val orbit : group -> t -> t list
  (** Every image of the fingerprint under the group, itself first — a
      test oracle. *)

  val orbit_min : group -> t -> t
  (** The least element of the orbit (hash first, then structure): the
      exhaustive canonical form, kept as the test oracle {!canonical}
      must partition alike with. *)
end
