(** Crash-point fuzzing for the PREP-UC durability guarantees.

    The seed tests crash at a handful of hand-picked simulated times; the
    hazards the paper warns about (a background cache write-back
    persisting a mid-update replica, §2.2/§4.1) can strike at *any* memory
    operation. This driver explores that space systematically:

    - run a seeded workload in the simulator with randomized preemption
      ([Sim.create ~preempt_prob]);
    - inject a full-system power failure at a randomly chosen point —
      either a simulated time ([Sim.run ~until]) or an exact memory-
      operation index (the crash hook of [Nvm.Memory]);
    - recover, and judge the recovered state with [Durable_lin]: loss
      bound (ε+β−1 buffered, 0 durable), prefix consistency, application
      order, and state-vs-model replay;
    - on failure, [shrink] minimizes (threads, crash point, work) to the
      smallest episode that still reproduces, and [Repro.fuzz] prints a
      replayable CLI invocation.

    The driver is written once over the system-under-test signature
    [Sut.S]: the single construction and the sharded 2PC router (whose
    judgment adds the cross-shard atomicity audit) are fuzzed by the same
    code.

    Everything is a deterministic function of the episode parameters, so a
    CI budget of episodes explores fresh crash points per seed without
    flakiness, and every failure is replayable from its printed command. *)

exception Crash_injected

type crash_point =
  | At_op of int
      (** power failure immediately before the [n]-th memory operation
          issued after construction finished *)
  | At_time of int  (** power failure at this simulated time, ns *)
  | No_crash  (** run to quiescence; check the final state instead *)

(** One episode: only what is specific to it. ε, log size, mode, the
    gated layers, the policy and the fault come from the [Prep.Config.t]
    the driver is given; [threads] (which [shrink] reduces) sets its
    [workers]. *)
type episode = {
  workload_seed : int;  (** seeds the scheduler, workload and bg flushes *)
  threads : int;
  ops_per_worker : int;
  bg_period : int;  (** mean ops between background cache write-backs *)
  preempt_prob : float;  (** forced-preemption chance per tick *)
  crash : crash_point;
}

type outcome = {
  crashed : bool;
  vacuous : bool;
      (** the crash hit before construction finished: nothing to check *)
  violations : Durable_lin.violation list;
  logged : int;  (** trace length at the crash/end *)
  completed : int;
  applied : int;  (** ops present in the recovered (or final) state *)
  runtime_ops : int;  (** memory operations issued after construction *)
  end_time : int;  (** simulated ns at quiescence (0 if crashed) *)
}

type failure = { episode : episode; violations : Durable_lin.violation list }

type result = { episodes : int; crashes : int; failures : failure list }

let crash_flag = function
  | At_op n -> Printf.sprintf "--crash-op %d" n
  | At_time ns -> Printf.sprintf "--crash-at %d" ns
  | No_crash -> "--no-crash"

let pp_episode (cfg : Prep.Config.t) ppf ep =
  Fmt.pf ppf "seed=%d threads=%d epsilon=%d ops=%d %s" ep.workload_seed
    ep.threads cfg.Prep.Config.epsilon ep.ops_per_worker (crash_flag ep.crash)

(* Small fixed machine: plenty of cross-socket traffic, fast episodes.
   Worker count is capped at total cores − 1 (persistence thread). *)
let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 }
let max_threads = Sim.Topology.total_cores topology - 1

module Make (S : Sut.S) = struct
  open Nvm

  (** Run one episode of [cfg]'s construction: workload, optional crash,
      recovery, judgment ([Sut.S.recover_and_judge] after a crash,
      [Sut.S.judge_quiescent] otherwise). [gen_op] draws one (op, args)
      pair from the fiber's rng. *)
  let run_episode (cfg : Prep.Config.t) ~gen_op ep =
    if ep.threads < 1 || ep.threads > max_threads then
      invalid_arg "Fuzz: thread count out of range";
    let cfg = { cfg with Prep.Config.workers = ep.threads } in
    let sim =
      Sim.create
        ~seed:(Int64.of_int ep.workload_seed)
        ~preempt_prob:ep.preempt_prob topology
    in
    let mem =
      Memory.make
        ~seed:(Int64.of_int (ep.workload_seed + 7919))
        ~sockets:topology.Sim.Topology.sockets ~bg_period:ep.bg_period ()
    in
    let uc_ref = ref None in
    let setup_ops = ref 0 in
    let end_time = ref 0 in
    ignore
      (Sim.spawn sim ~socket:0 (fun () ->
           let uc = S.create mem (Roots.make mem) cfg in
           uc_ref := Some uc;
           setup_ops := Memory.op_index mem;
           (* only now is there a recoverable checkpoint: crash points are
              relative to the end of construction *)
           (match ep.crash with
            | At_op n ->
              let base = !setup_ops in
              Memory.set_crash_hook mem (fun i ->
                  if i - base >= n then raise Crash_injected)
            | At_time _ | No_crash -> ());
           S.start_persistence uc;
           let done_count = ref 0 in
           for w = 0 to ep.threads - 1 do
             let socket, core = Sim.Topology.place topology w in
             Sim.spawn_here ~socket ~core (fun () ->
                 S.register_worker uc;
                 let rng = Sim.fiber_rng () in
                 for _ = 1 to ep.ops_per_worker do
                   let op, args = gen_op rng in
                   S.execute uc ~op ~args
                 done;
                 incr done_count)
           done;
           while !done_count < ep.threads do
             Sim.tick 10_000
           done;
           S.stop uc;
           S.sync uc;
           end_time := Sim.now ()));
    let crashed =
      match ep.crash with
      | No_crash -> (
        match Sim.run sim () with
        | `Done -> false
        | `Cut _ -> assert false)
      | At_time ns -> (
        match Sim.run ~until:ns sim () with `Cut _ -> true | `Done -> false)
      | At_op _ -> (
        try
          ignore (Sim.run sim ());
          false
        with Crash_injected -> true)
    in
    Memory.clear_crash_hook mem;
    match !uc_ref with
    | None ->
      (* power failed during construction: no checkpoint existed yet *)
      {
        crashed;
        vacuous = true;
        violations = [];
        logged = 0;
        completed = 0;
        applied = 0;
        runtime_ops = 0;
        end_time = 0;
      }
    | Some uc ->
      let runtime_ops = Memory.op_index mem - !setup_ops in
      let j =
        if crashed then begin
          if cfg.Prep.Config.mode = Prep.Config.Volatile then
            invalid_arg "Fuzz: volatile episodes cannot crash";
          Memory.crash mem;
          S.recover_and_judge uc ~topo:topology ~run:(fun f ->
              Context.reset ();
              let sim2 =
                Sim.create ~seed:(Int64.of_int (ep.workload_seed + 1)) topology
              in
              ignore (Sim.spawn sim2 ~socket:0 f);
              match Sim.run sim2 () with
              | `Done -> ()
              | `Cut _ -> failwith "Fuzz: recovery did not finish")
        end
        else S.judge_quiescent uc
      in
      {
        crashed;
        vacuous = false;
        violations = j.Sut.violations;
        logged = j.Sut.logged;
        completed = j.Sut.completed;
        applied = j.Sut.applied;
        runtime_ops;
        end_time = (if crashed then 0 else !end_time);
      }

  (** Fuzz [iters] episodes derived from [template] (whose [crash] field is
      ignored): one calibration run sizes the crash-point space, then each
      episode gets a fresh workload seed and a random crash point —
      alternating between memory-operation-index and simulated-time
      injection. Deterministic in [template].

      [runner] evaluates the episode task array (default: in order on the
      calling domain; the CLI injects [Harness.Campaign.run ~j]). The
      whole plan — every seed and crash point — is drawn serially *before*
      any episode runs, each episode is a self-contained sim, and the
      results are merged in episode order, so the result and the log are
      byte-identical whatever the runner's parallelism. *)
  let fuzz (cfg : Prep.Config.t) ~gen_op ~template ~iters
      ?(log = fun _ -> ())
      ?(runner = fun tasks -> Array.map (fun task -> task ()) tasks) () =
    let calib = run_episode cfg ~gen_op { template with crash = No_crash } in
    log
      (Fmt.str "calibration: %d ops logged, %d mem-ops, %d ns"
         calib.logged calib.runtime_ops calib.end_time);
    let rng =
      Sim.Rng.create (Int64.of_int ((template.workload_seed * 1_000_003) + 17))
    in
    let plan =
      Array.init iters (fun idx ->
          let i = idx + 1 in
          let crash =
            if cfg.Prep.Config.mode = Prep.Config.Volatile then No_crash
            else if Sim.Rng.bool rng then
              At_op (1 + Sim.Rng.int rng (max 1 calib.runtime_ops))
            else At_time (1 + Sim.Rng.int rng (max 1 calib.end_time))
          in
          { template with workload_seed = template.workload_seed + i; crash })
    in
    let outs =
      runner (Array.map (fun ep () -> run_episode cfg ~gen_op ep) plan)
    in
    let failures = ref [] in
    let crashes = ref 0 in
    Array.iteri
      (fun idx out ->
        let ep = plan.(idx) in
        if out.crashed then incr crashes;
        if out.violations <> [] then begin
          failures := { episode = ep; violations = out.violations } :: !failures;
          log
            (Fmt.str "episode %d/%d FAILED (%a): %a" (idx + 1) iters
               (pp_episode cfg) ep
               Fmt.(list ~sep:comma Durable_lin.pp_violation)
               out.violations)
        end)
      outs;
    { episodes = iters; crashes = !crashes; failures = List.rev !failures }

  (** Minimize a failing episode: fewest threads first (re-probing several
      crash points, since fewer threads shift the schedule), then an
      earlier crash point, then less work per worker. *)
  let shrink (cfg : Prep.Config.t) ~gen_op ep =
    let fails ep = (run_episode cfg ~gen_op ep).violations <> [] in
    let scale_crash ep num den =
      match ep.crash with
      | At_op c -> { ep with crash = At_op (max 1 (c * num / den)) }
      | At_time c -> { ep with crash = At_time (max 1 (c * num / den)) }
      | No_crash -> ep
    in
    let smaller ep =
      let threads =
        List.sort_uniq compare [ 1; 2; ep.threads / 2; ep.threads - 1 ]
        |> List.filter (fun t -> t >= 1 && t < ep.threads)
        |> List.concat_map (fun t ->
               let ep = { ep with threads = t } in
               [ ep; scale_crash ep 3 4; scale_crash ep 1 2; scale_crash ep 1 4 ])
      in
      let crash_only =
        match ep.crash with
        | At_op c | At_time c ->
          if c > 1 then [ scale_crash ep 1 2; scale_crash ep 7 8 ] else []
        | No_crash -> []
      in
      let work =
        if ep.ops_per_worker > 40 then
          [ { ep with ops_per_worker = ep.ops_per_worker / 2 } ]
        else []
      in
      threads @ crash_only @ work
    in
    Shrink.minimize ~smaller ~fails ep
end
