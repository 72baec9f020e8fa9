(** The system under test of the checkers.

    [Fuzz] and [Explore] are written once, over this signature; the two
    constructions of the repo are its two instances:

    - [Prep_uc] — one PREP-UC instance ([Prep.Prep_uc]), judged with
      [Durable_lin] at the mode's loss bound (ε+β−1 buffered, 0 durable)
      plus, under [Config.detect], the exactly-once [resolve] audit;
    - [Sharded_uc] — N hash-routed PREP-Durable shards behind the 2PC
      router ([Prep.Sharded_uc]), judged as ONE history: per-shard
      [Durable_lin] at loss bound 0 with rolled-back prepares excused,
      plus the cross-shard [Durable_lin.check_atomicity] audit.

    Everything a checker needs from a construction is here: building and
    driving it, its quiescent snapshot, the ghost fingerprints the
    explorer dedups on, and the two verdicts (after a crash and at
    quiescence). [of_config] picks the instance from [Config.shards]. *)

(* local hash mixing, same construction as Memory's fingerprints *)
let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x1B03738712FAD5C9 in
  let x = x lxor (x lsr 27) in
  let x = x * 0x2545F4914F6CDD1D in
  x lxor (x lsr 31)

let h2 a b = mix (a + (mix b * 0x27D4EB2F165667C5))

let trace_hash trace =
  let n = Prep.Trace.length trace in
  let h = ref (mix n) in
  for i = 0 to n - 1 do
    let e = Prep.Trace.get trace i in
    h :=
      h2 !h
        (h2 e.Prep.Trace.op
           (h2
              (Array.fold_left h2 0 e.Prep.Trace.args)
              (h2
                 (if e.Prep.Trace.completed then 1 else 0)
                 (h2 e.Prep.Trace.tid e.Prep.Trace.seqno))))
  done;
  !h

(** A checker verdict on one recovered (or quiescent) state. *)
type judgement = {
  violations : Durable_lin.violation list;
  lost : int;  (** completed ops missing from the recovered state *)
  logged : int;  (** ops in the ghost trace(s) at the crash/end *)
  completed : int;
  applied : int;  (** ops present in the recovered (or final) state *)
}

module type S = sig
  type t

  val create : Nvm.Memory.t -> Nvm.Roots.t -> Prep.Config.t -> t
  val start_persistence : t -> unit
  val register_worker : t -> unit
  val execute : t -> op:int -> args:int array -> unit
  val stop : t -> unit
  val sync : t -> unit

  val snapshot : t -> int list
  (** cost-free quiescent state, for terminal-state comparison *)

  val ghost_hash : t -> int
  (** fingerprint of the ghost state (traces, stop flags, client seqnos,
      transaction intents): part of the explorer's state key, and a change
      wakes parked fibers *)

  val crash_key : t -> int
  (** the ghost part of a crash state: with the media image it determines
      the oracle's verdict *)

  val recover_and_judge :
    t -> topo:Sim.Topology.t -> run:((unit -> unit) -> unit) -> judgement
  (** on the crashed memory: recover and judge the recovered state. [run]
      executes its argument in a fiber of a fresh recovery simulation. *)

  val judge_quiescent : t -> judgement
  (** after a crash-free run: the final state must equal the full-trace
      model replay *)
end

(* latest applied client seqno per thread, from the tagged ghost trace *)
let applied_seqno_fn trace applied =
  let tbl : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun i ->
      let e = Prep.Trace.get trace i in
      if e.Prep.Trace.seqno > 0 then
        let cur =
          Option.value ~default:0 (Hashtbl.find_opt tbl e.Prep.Trace.tid)
        in
        if e.Prep.Trace.seqno > cur then
          Hashtbl.replace tbl e.Prep.Trace.tid e.Prep.Trace.seqno)
    applied;
  fun tid -> Option.value ~default:0 (Hashtbl.find_opt tbl tid)

module Prep_uc (Ds : Seqds.Ds_intf.S) : S = struct
  module Uc = Prep.Prep_uc.Make (Ds)
  module Dl = Durable_lin.Make (Ds.Model)

  type t = Uc.t

  let create mem roots cfg = Uc.create mem roots cfg
  let start_persistence = Uc.start_persistence
  let register_worker = Uc.register_worker
  let execute t ~op ~args = ignore (Uc.execute t ~op ~args)
  let stop = Uc.stop
  let sync = Uc.sync
  let snapshot = Uc.snapshot

  let ghost_hash uc =
    h2
      (if uc.Uc.stop_flag then 1 else 0)
      (h2 (trace_hash uc.Uc.trace)
         (h2 (Uc.lsm_ghost uc) (Array.fold_left h2 0 uc.Uc.next_seq)))

  let crash_key uc = trace_hash (Uc.trace uc)

  let recover_and_judge uc ~topo ~run =
    let cfg = uc.Uc.cfg in
    let trace = Uc.trace uc in
    let completed = Prep.Trace.completed_indexes trace in
    let out = ref None in
    run (fun () ->
        let uc', report = Uc.recover uc in
        let resolutions =
          if not cfg.Prep.Config.detect then []
          else
            List.init cfg.Prep.Config.workers (fun w ->
                let socket, core = Sim.Topology.place topo w in
                let tid =
                  (socket * topo.Sim.Topology.cores_per_socket) + core
                in
                (tid, Uc.resolve uc' ~tid))
        in
        out := Some (report, Uc.snapshot uc', resolutions));
    let report, recovered_snapshot, resolutions = Option.get !out in
    let applied = report.Prep.Prep_uc.applied in
    let loss_bound =
      if cfg.Prep.Config.mode = Prep.Config.Durable then 0
      else cfg.Prep.Config.epsilon + topo.Sim.Topology.cores_per_socket - 1
    in
    let violations =
      Dl.check ~trace ~prefill:(Uc.prefill_ops uc) ~applied ~completed
        ~recovered_snapshot ~loss_bound ()
    in
    let violations =
      if not cfg.Prep.Config.detect then violations
      else
        (* resolve-consistency: each thread's verdict must name exactly
           the frontier of what the recovered state contains *)
        violations
        @ Durable_lin.check_resolutions ~resolutions
            ~applied_seqno:(applied_seqno_fn trace applied)
    in
    {
      violations;
      lost = report.Prep.Prep_uc.lost_completed;
      logged = Prep.Trace.length trace;
      completed = List.length completed;
      applied = List.length applied;
    }

  let judge_quiescent uc =
    let trace = Uc.trace uc in
    let logged = Prep.Trace.length trace in
    let completed = Prep.Trace.completed_indexes trace in
    let violations =
      Dl.check ~trace ~prefill:(Uc.prefill_ops uc)
        ~applied:(List.init logged Fun.id) ~completed
        ~recovered_snapshot:(Uc.snapshot uc) ~loss_bound:0 ()
    in
    {
      violations;
      lost = 0;
      logged;
      completed = List.length completed;
      applied = logged;
    }
end

module Sharded_uc (Ds : Seqds.Ds_intf.S) : S = struct
  module S = Prep.Sharded_uc.Make (Ds)
  module Dl = Durable_lin.Make (S.Tx.Model)

  type t = S.t

  let create mem roots cfg = S.create mem roots cfg
  let start_persistence = S.start_persistence
  let register_worker = S.register_worker
  let execute t ~op ~args = ignore (S.execute t ~op ~args)
  let stop = S.stop
  let sync = S.sync
  let snapshot = S.snapshot
  let sum_over n f = List.init n f |> List.fold_left ( + ) 0

  (* order-independent hash of the transaction ghost (Hashtbl iteration
     order must not leak into state keys) *)
  let txn_ghost_hash (uc : S.t) =
    let acc = ref (mix uc.S.next_txid) in
    Hashtbl.iter
      (fun txid parts -> acc := !acc lxor h2 txid (List.fold_left h2 0 parts))
      uc.S.txn_intent;
    !acc

  let ghost_hash (uc : S.t) =
    let h = ref (txn_ghost_hash uc) in
    for i = 0 to uc.S.nshards - 1 do
      let sh = S.shard uc i in
      h :=
        h2 !h
          (h2
             (if sh.S.P.stop_flag then 1 else 0)
             (h2 (trace_hash sh.S.P.trace)
                (Array.fold_left h2 0 sh.S.P.next_seq)))
    done;
    !h

  let crash_key (uc : S.t) =
    h2
      (sum_over uc.S.nshards (fun i -> trace_hash (S.trace uc i) lxor mix i))
      (txn_ghost_hash uc)

  let logged (uc : S.t) =
    sum_over uc.S.nshards (fun i -> Prep.Trace.length (S.trace uc i))

  let completed (uc : S.t) =
    sum_over uc.S.nshards (fun i ->
        List.length (Prep.Trace.completed_indexes (S.trace uc i)))

  (* Judge one crashed-and-recovered sharded run as a single history: a
     transaction prepare whose decision never reached media is rolled back
     by design, not lost — the coordinator reports a multi-key op complete
     only after the decision's fence, so an undecided prepare can only
     belong to an op no client saw finish. *)
  let recover_and_judge (uc : S.t) ~topo:_ ~run =
    let out = ref None in
    run (fun () -> out := Some (S.recover uc));
    let uc', reports = Option.get !out in
    let nshards = uc.S.nshards in
    let committed txid = S.committed uc' txid in
    let survives trace idx =
      let e = Prep.Trace.get trace idx in
      (not (Prep.Sharded_uc.is_txn_op e.Prep.Trace.op))
      || committed e.Prep.Trace.args.(0)
    in
    let violations = ref [] in
    (* per-shard applied-prepare tallies, for the atomicity audit *)
    let tally = Array.init nshards (fun _ -> Hashtbl.create 64) in
    for i = 0 to nshards - 1 do
      let trace = S.trace uc i in
      List.iter
        (fun idx ->
          let e = Prep.Trace.get trace idx in
          if Prep.Sharded_uc.is_txn_op e.Prep.Trace.op then begin
            let txid = e.Prep.Trace.args.(0) in
            Hashtbl.replace tally.(i) txid
              (1 + Option.value ~default:0 (Hashtbl.find_opt tally.(i) txid))
          end)
        reports.(i).Prep.Prep_uc.applied;
      let completed =
        List.filter (survives trace) (Prep.Trace.completed_indexes trace)
      in
      violations :=
        !violations
        @ Dl.check ~trace ~prefill:(S.prefill_ops uc i)
            ~applied:reports.(i).Prep.Prep_uc.applied ~completed
            ~recovered_snapshot:(S.P.snapshot (S.shard uc' i)) ~loss_bound:0
            ()
    done;
    let intents =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) uc.S.txn_intent []
      |> List.sort compare
    in
    let applied_count s txid =
      Option.value ~default:0 (Hashtbl.find_opt tally.(s) txid)
    in
    let violations =
      !violations
      @ Durable_lin.check_atomicity ~nshards ~intents ~committed ~applied_count
    in
    (* completed-op loss, rolled-back prepares excused: in durable mode
       everything else must survive *)
    let lost =
      sum_over nshards (fun i ->
          let trace = S.trace uc i in
          let applied = Hashtbl.create 64 in
          List.iter
            (fun x -> Hashtbl.replace applied x ())
            reports.(i).Prep.Prep_uc.applied;
          List.length
            (List.filter
               (fun idx ->
                 (not (Hashtbl.mem applied idx)) && survives trace idx)
               (Prep.Trace.completed_indexes trace)))
    in
    {
      violations;
      lost;
      logged = logged uc;
      completed = completed uc;
      applied =
        Array.fold_left
          (fun acc r -> acc + List.length r.Prep.Prep_uc.applied)
          0 reports;
    }

  (* every shard's full trace must replay to its final state, and every
     transaction must have a durable decision *)
  let judge_quiescent (uc : S.t) =
    let violations = ref [] in
    for i = 0 to uc.S.nshards - 1 do
      let trace = S.trace uc i in
      violations :=
        !violations
        @ Dl.check ~trace ~prefill:(S.prefill_ops uc i)
            ~applied:(List.init (Prep.Trace.length trace) Fun.id)
            ~completed:(Prep.Trace.completed_indexes trace)
            ~recovered_snapshot:(S.P.snapshot (S.shard uc i)) ~loss_bound:0 ()
    done;
    Hashtbl.iter
      (fun txid parts ->
        if not (S.committed uc txid) then
          violations :=
            Durable_lin.Atomicity_violation
              { txid; committed = false; shard = List.hd parts }
            :: !violations)
      uc.S.txn_intent;
    let logged = logged uc in
    { violations = !violations; lost = 0; logged; completed = completed uc;
      applied = logged }
end

(** The instance [cfg] describes: the sharded router when
    [cfg.shards > 1], the single construction otherwise. *)
let of_config (module Ds : Seqds.Ds_intf.S) (cfg : Prep.Config.t) :
    (module S) =
  if cfg.Prep.Config.shards > 1 then (module Sharded_uc (Ds))
  else (module Prep_uc (Ds))
