(** Deterministic SplitMix64 pseudo-random number generator.

    Every source of nondeterminism in the simulator (schedule jitter,
    background flushes, workload key choices) draws from an instance of this
    generator so that a run is fully reproducible from its seed. *)

(* The 64-bit state lives in 8 bytes, not in a mutable [int64] field,
   whose every update would allocate a box: a draw allocates nothing. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

(** The current state (snapshots, state fingerprints). *)
let state t = Bytes.get_int64_ne t 0

(** Rewind or fast-forward to a state read by [state]. *)
let set_state t s = Bytes.set_int64_ne t 0 s

let golden = 0x9E3779B97F4A7C15L

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** [int t bound] returns a uniform integer in [0, bound). *)
let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.to_int (next_int64 t) land max_int in
  r mod bound

(** [float t] returns a uniform float in [0, 1). *)
let[@inline] float t =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r /. 9007199254740992.0 (* 2^53 *)

(** [bool t] returns a uniform boolean. *)
let bool t = Int64.logand (next_int64 t) 1L = 1L

(** [split t] derives an independent generator; used to give each fiber its
    own stream so spawning order does not perturb unrelated draws. *)
let split t = create (next_int64 t)
