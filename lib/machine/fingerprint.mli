(** Canonical structural fingerprint of a machine configuration.

    Covers everything that determines future behaviour — persistent
    memory, junk-generator state, and per-process control state (status,
    results, remaining script, frame stacks with locals) — and excludes
    history bookkeeping (call ids, step counts, the recorded history):
    two configurations with equal fingerprints generate identical future
    event sequences even when reached by different interleavings.

    The representation is structural (no string building) and the hash
    is computed once at construction, for tables keyed on
    configurations.  The explorer's visited {!Store} keys on {!Key}
    instead: the same fields as flat bytes, encoded straight from the
    machine. *)

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
    configuration, which {!Symmetry.arrange} may still reorder
    before the hash is paid for. *)

val draft : Sim.t -> draft
(** The structural copy that {!of_sim} hashes. *)

val seal : ?extra:int -> draft -> t
(** Hash a draft into a fingerprint ([extra] as in {!of_sim}). *)

val equal : t -> t -> bool
val hash : t -> int

val to_string : t -> string
(** Printable canonical serialisation, for diagnostics. *)

module Table : Hashtbl.S with type key = t

val erased_proc_hash : Sim.t -> int -> int
(** Hash of process [p]'s control state with every [Pid] value erased to
    an own/other token.  It is {e equivariant}: after renaming the
    processes by a permutation [pi], process [pi p] has the hash [p] had.
    That makes it a sound tie-breaker for partial-order choices made
    under symmetry reduction (see {!Explore}), and the key by which
    {!Symmetry.canonical} ranks processes. *)

(** Lossless flat byte key of a configuration: the fields {!equal}
    compares, in a prefix-free layout (tagged values, length-prefixed
    strings and sequences, varint integers).  Two keys are equal byte
    for byte exactly when the fingerprints are {!equal}, so the bytes
    are an exact visited-set key — no hash compaction — and hold no
    pointers.  The key hash is the store's own, unrelated to {!hash}. *)
module Key : sig
  type enc
  (** A key encoded into the calling domain's reusable buffer, with its
      hash: valid until the same domain encodes again. *)

  val encode_sim : ?extra:int -> Sim.t -> enc
  (** Straight from the machine, without building the structural copy;
      byte for byte the key of [of_sim ?extra sim]. *)

  val encode_draft : ?extra:int -> draft -> enc
  (** The key of [seal ?extra d], without hashing the draft. *)

  val encode : t -> enc

  val to_string : enc -> string

  val of_sim : ?extra:int -> Sim.t -> string
  (** [to_string (encode_sim ?extra sim)]. *)

  val of_fp : t -> string
  (** [to_string (encode fp)]. *)
end

(** Lock-free sharded visited-set of {!Key}s, shared by all exploring
    domains.  Each shard is an ordered chain of open-addressing
    segments whose slots are [Atomic] and monotone (vacant → key string,
    never changed again); insertion probes the chain in one fixed
    global order and claims the first vacant slot by CAS, so equal keys
    — which share the same probe sequence — serialise on a single slot
    and [add] answers "fresh" exactly once per distinct key without
    taking a lock on the fast path.  Each segment also keeps a screen
    of slot hashes, written after the winning CAS, that lets a probe
    skip taken slots without reading them; a slot whose screen entry is
    not written yet is read, so the screen never decides membership.
    A duplicate probe allocates nothing.  Shards grow by appending
    doubled segments under a per-shard mutex. *)
module Store : sig
  type fp = t
  type t

  val create : ?shards:int -> unit -> t
  (** [shards] (default 64) is rounded up to a power of two; the shard
      is chosen by the low key-hash bits, the in-shard probe position
      by the remaining bits. *)

  val add_key : t -> Key.enc -> bool
  (** [add_key s k] is [true] iff [k] was not yet in the store (it is
      recorded atomically with the test — linearizable across
      domains). *)

  val add : t -> fp -> bool
  (** [add s fp] is [add_key s (Key.encode fp)]. *)

  val cardinal : t -> int
  (** Number of distinct keys inserted. *)

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

  val arrange : group -> draft -> draft
  (** The arrangement of a draft that {!canonical} picks — the draft
      itself when no permutation beats it — neither hashed nor encoded:
      [seal ?extra (arrange g d)] is [canonical g (seal ?extra d)]. *)


  val orbit : group -> t -> t list
  (** Every image of the fingerprint under the group, itself first — a
      test oracle. *)

  val orbit_min : group -> t -> t
  (** The least element of the orbit (hash first, then structure): the
      exhaustive canonical form, kept as the test oracle {!canonical}
      must partition alike with. *)
end
