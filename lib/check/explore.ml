(** Bounded exhaustive schedule-and-crash exploration.

    The fuzzer (lib/check/fuzz.ml) samples random schedules and random
    crash points; this module *enumerates* them for a small-scope workload
    (2–3 threads, a handful of ops, tiny ε), the way model-checking-based
    persistency tools do. It is written once over the system-under-test
    signature [Sut.S], so the single construction and the sharded 2PC
    router are explored by the same engine:

    - [Sim] runs in controlled-scheduler mode: every fiber-facing memory
      operation is a scheduling choice point, and the explorer drives a
      depth-first search over the choice tree, re-executing the workload
      from scratch along each schedule (stateless search). A schedule is
      identified by its decision trace — the fid chosen at every branching
      point — which makes any run replayable bit-for-bit.
    - At every explored step it enumerates *every reachable crash
      frontier*: the current media image plus each subset of the dirty NVM
      lines the cache could have written back first (the write-pending
      queue is volatile, exactly as in [Memory.crash]). Each new frontier
      is realised against a memory snapshot, recovered and judged by the
      system under test ([Sut.S.recover_and_judge]); the snapshot is then
      restored and the run continues.
    - Pruning makes this tractable: (a) an await transformation — a fiber
      entering a [Sim.spin] wait iteration is parked out of the branching
      set until some write or ghost-state change could alter what its
      re-check observes, so busy-wait loops contribute no interleavings of
      their own; (b) sleep-set/DPOR-style reduction keyed on the
      cache-line footprint of each step — after a branch is fully
      explored, its first step sleeps in sibling branches until a
      conflicting access wakes it; (c) state-hash deduplication over the
      incremental fingerprints [Memory] maintains (values, media, dirty
      map, WPQ) plus the ghost state and per-fiber control state.

    Soundness notes. Controlled mode explores *all* sequentially
    consistent interleavings — a superset of what timed dispatch can emit
    — so every violation found corresponds to a real protocol bug, and
    every decision trace replays deterministically. Per-fiber control
    state is tracked exactly: a hash chain over the fiber's entire
    observation history (address, kind and value of every access), which
    determines its continuation because fiber code is deterministic over
    its observations. Parking is versioned from the *start* of a wait
    iteration, so a write landing between a wait round's condition reads
    and its spin still wakes the fiber (no lost wakeups), and wakes are
    otherwise conservative. State caching honours sleep sets the
    Godefroid way: a revisit is pruned only when the state was previously
    explored under a subset of the current sleep set. Crash-state dedup
    is exact for the oracle's verdict, which is a function of
    (media, [Sut.S.crash_key], config) only. Exhaustion is reported only when
    no budget, depth or frontier cap was hit. *)

type budget = {
  max_schedules : int;  (** schedules (complete or pruned) to execute *)
  max_states : int;  (** distinct deduplicated states to visit *)
  max_steps : int;  (** runtime scheduler steps per schedule (depth) *)
  max_frontier_lines : int;
      (** dirty-line cap per crash point: k lines -> 2^k subsets *)
}

let default_budget =
  {
    max_schedules = 50_000;
    max_states = 200_000;
    max_steps = 50_000;
    max_frontier_lines = 8;
  }

(** Small-scope workload under exploration: only what is specific to the
    scope. ε, log size, mode, the gated layers, the policy and the fault
    come from the [Prep.Config.t] the explorer is given; [threads] sets its
    [workers]. [prune] disables the sleep-set and state-dedup reductions
    (naive enumeration, for the reduction-factor comparison); crash-state
    dedup stays on either way — it is exact. *)
type scope = {
  seed : int;  (** seeds the per-worker operation lists *)
  threads : int;
  ops_per_worker : int;
  sockets : int;
  cores_per_socket : int;
  prune : bool;
  persistence : bool;
      (** spawn the background persistence (checkpoint) fibers. [false]
          keeps the checkpoint loop out of the interleaving space — sound
          whenever the scope's total op count stays below [epsilon] and
          the log cannot wrap, because the flush boundary starts a full
          [epsilon] ahead (no combiner ever blocks on it) and recovery
          replays the whole log over the empty initial checkpoint. *)
}

type stats = {
  mutable schedules : int;  (** executions started (complete or pruned) *)
  mutable steps : int;  (** runtime scheduler steps, summed over runs *)
  mutable states : int;  (** distinct states (pruned) / visited (naive) *)
  mutable dedup_hits : int;  (** schedules cut by state-hash dedup *)
  mutable sleep_skips : int;  (** branch alternatives skipped by sleep sets *)
  mutable terminals : int;  (** schedules that ran to quiescence *)
  mutable crash_points : int;  (** steps at which frontiers were enumerated *)
  mutable frontiers : int;  (** crash frontiers (subsets) fingerprinted *)
  mutable recoveries : int;  (** distinct crash states recovered+checked *)
  mutable frontier_truncations : int;  (** points where the line cap bit *)
  mutable depth_cutoffs : int;  (** schedules cut by [max_steps] *)
  mutable stutter_cuts : int;
      (** schedules cut at quiescent points where no runnable fiber could
          observe anything new (unfair infinite-stutter suffixes) *)
  mutable max_completed_loss : int;
      (** worst completed-op loss over every checked crash state *)
}

let new_stats () =
  {
    schedules = 0;
    steps = 0;
    states = 0;
    dedup_hits = 0;
    sleep_skips = 0;
    terminals = 0;
    crash_points = 0;
    frontiers = 0;
    recoveries = 0;
    frontier_truncations = 0;
    depth_cutoffs = 0;
    stutter_cuts = 0;
    max_completed_loss = 0;
  }

(** A durable-linearizability violation plus everything needed to replay
    it: the decision trace and, for crash violations, the runtime step at
    which to crash and the frontier mask over the sorted dirty-line list
    at that step. *)
type violation = {
  v_decisions : int list;  (** fid chosen at each branching point *)
  v_crash : (int * int) option;  (** (runtime step, frontier mask) *)
  v_violations : Durable_lin.violation list;
  v_logged : int;
  v_completed : int;
  v_applied : int;
}

type result = {
  stats : stats;
  violation : violation option;
  terminal_states : int list list;
      (** distinct terminal snapshots, sorted — the flag-equivalence tests
          compare these across gated-optimisation configurations *)
  exhausted : bool;
      (** the bounded space was fully explored: no budget, depth or
          frontier cap was hit and no violation cut the search short *)
}

(* inverse gray code: the enumeration index whose gray code is [g] *)
let ungray g =
  let i = ref g and s = ref (g lsr 1) in
  while !s <> 0 do
    i := !i lxor !s;
    s := !s lsr 1
  done;
  !i

(* Position of a shard's violation in the serial check order: checks run in
   increasing (schedule, step, frontier-enumeration index); the terminal
   model-replay of a schedule runs after all of its crash checks. A shard
   stops at its first violation, so its [stats.schedules] at that moment is
   the schedule ordinal. *)
let violation_ordinal (r : result) =
  match r.violation with
  | None -> None
  | Some v ->
    (match v.v_crash with
     | Some (step, mask) -> Some (r.stats.schedules, step, ungray mask)
     | None -> Some (r.stats.schedules, max_int, max_int))

(** Merge the results of running [explore ~shard:(i, n)] for every
    [i < n] (any order — shards are independent). Every shard replays the
    identical DFS and differs only in which oracle checks it performs, so
    when no shard found a violation all scheduling statistics must be
    bit-identical — verified here as a determinism audit; [recoveries]
    (the sharded work) sums and [max_completed_loss] maxes. The merged
    violation, if any, is the one the unsharded serial search would have
    hit first: minimal [violation_ordinal] across shards. *)
let merge_shards (shards : result array) : result =
  if Array.length shards = 0 then invalid_arg "Explore.merge_shards: empty";
  if Array.length shards = 1 then shards.(0)
  else begin
    let winner =
      Array.to_list shards
      |> List.filter_map (fun r ->
             Option.map (fun o -> (o, r)) (violation_ordinal r))
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> function
      | [] -> None
      | (_, r) :: _ -> Some r
    in
    let base = match winner with Some r -> r | None -> shards.(0) in
    if winner = None then
      (* no shard stopped early: the replicated DFS bookkeeping must agree *)
      Array.iteri
        (fun i r ->
          let s = r.stats and s0 = base.stats in
          let same =
            s.schedules = s0.schedules
            && s.steps = s0.steps && s.states = s0.states
            && s.dedup_hits = s0.dedup_hits
            && s.sleep_skips = s0.sleep_skips
            && s.terminals = s0.terminals
            && s.crash_points = s0.crash_points
            && s.frontiers = s0.frontiers
            && s.frontier_truncations = s0.frontier_truncations
            && s.depth_cutoffs = s0.depth_cutoffs
            && s.stutter_cuts = s0.stutter_cuts
            && r.terminal_states = base.terminal_states
            && r.exhausted = base.exhausted
          in
          if not same then
            failwith
              (Printf.sprintf
                 "Explore.merge_shards: shard %d diverged from shard 0 \
                  (exploration is not deterministic)"
                 i))
        shards;
    let recoveries =
      Array.fold_left (fun a r -> a + r.stats.recoveries) 0 shards
    in
    let max_completed_loss =
      Array.fold_left (fun a r -> max a r.stats.max_completed_loss) 0 shards
    in
    {
      stats = { base.stats with recoveries; max_completed_loss };
      violation = base.violation;
      terminal_states = base.terminal_states;
      exhausted =
        base.violation = None
        && Array.for_all (fun r -> r.exhausted) shards;
    }
  end

(* run-length encoding of decision traces: "0*12,2,1*3" *)
let decisions_to_string ds =
  let buf = Buffer.create 64 in
  let flush fid n =
    if Buffer.length buf > 0 then Buffer.add_char buf ',';
    if n = 1 then Buffer.add_string buf (string_of_int fid)
    else Buffer.add_string buf (Printf.sprintf "%d*%d" fid n)
  in
  let rec go = function
    | [] -> ()
    | fid :: rest ->
      let rec count n = function
        | f :: r when f = fid -> count (n + 1) r
        | r -> (n, r)
      in
      let n, rest = count 1 rest in
      flush fid n;
      go rest
  in
  go ds;
  Buffer.contents buf

let decisions_of_string s =
  if String.trim s = "" then []
  else
    String.split_on_char ',' s
    |> List.concat_map (fun tok ->
           match String.index_opt tok '*' with
           | None -> [ int_of_string (String.trim tok) ]
           | Some i ->
             let fid = int_of_string (String.trim (String.sub tok 0 i)) in
             let n =
               int_of_string
                 (String.trim (String.sub tok (i + 1) (String.length tok - i - 1)))
             in
             List.init n (fun _ -> fid))

let mix = Sut.mix
let h2 = Sut.h2

(* step footprints: (dirty_key | -1 global, is_write) *)
type fp = (int * bool) list

let fp_conflict (f1 : fp) (f2 : fp) =
  List.exists
    (fun (k1, w1) ->
      List.exists
        (fun (k2, w2) -> (w1 || w2) && (k1 = -1 || k2 = -1 || k1 = k2))
        f2)
    f1

(* One branching point of the DFS. [nd_sleep] holds fids whose subtree is
   covered elsewhere, with the footprint their next step had when it was
   explored; a conflicting access on the way down wakes (drops) them. *)
type node = {
  nd_enabled : int array;
  mutable nd_sleep : (int * fp) list;
  mutable nd_tried : int list;
  mutable nd_choice : int;
  mutable nd_fp : fp;  (** footprint of [nd_choice]'s step, once executed *)
}

exception Pruned
exception Budget_exhausted
exception Violation_found of violation
exception Crash_now

let topology (s : scope) =
  { Sim.Topology.sockets = s.sockets; cores_per_socket = s.cores_per_socket }

let max_threads scope = (scope.sockets * scope.cores_per_socket) - 1

(* The per-worker op lists are drawn once, outside the simulation, so
   workers perform no rng draws at runtime: a fiber's behaviour is then a
   pure function of the values it reads, which is what the control-state
   fingerprint assumes. *)
let gen_workload ~gen_op ~scope =
  let rng = Sim.Rng.create (Int64.of_int ((scope.seed * 1_000_003) + 11)) in
  Array.init scope.threads (fun _ ->
      List.init scope.ops_per_worker (fun _ -> gen_op rng))

(* Run [f] (a recovery) in a fiber of a fresh nested timed simulation on
   the memory's current, post-crash state. *)
let recover_in topo f =
  Nvm.Context.reset ();
  let sim2 = Sim.create ~seed:97L topo in
  ignore (Sim.spawn sim2 ~socket:0 f);
  match Sim.run sim2 () with
  | `Done -> ()
  | `Cut _ -> failwith "Explore: recovery did not finish"

module Make (S : Sut.S) = struct
  open Nvm

  (* One execution of the scope's workload under the controlled
     scheduler: the state [explore]'s schedules and [replay] share. *)
  type run = {
    sim : Sim.t;
    mem : Memory.t;
    mutable uc : S.t option;
    mutable runtime : bool;  (** every worker fiber has been spawned *)
    mutable done_count : int;
    parked : (int, int) Hashtbl.t;
    iter_start : (int, int) Hashtbl.t;
    mutable write_version : int;
    mutable last_ghost : int;
  }

  let new_run ~scope topo =
    {
      sim = Sim.create topo;
      mem =
        Memory.make
          ~seed:(Int64.of_int (scope.seed + 7919))
          ~sockets:scope.sockets ~bg_period:0 ();
      uc = None;
      runtime = false;
      done_count = 0;
      parked = Hashtbl.create 16;
      iter_start = Hashtbl.create 16;
      write_version = 0;
      last_ghost = 0;
    }

  let ghost_hash r =
    h2 r.done_count (match r.uc with Some uc -> S.ghost_hash uc | None -> 0)

  (* The await transformation (the spin-loop treatment of stateless model
     checkers): a fiber entering a [Sim.spin] wait iteration is *parked* —
     removed from the branching set — until some write (or ghost-state
     change) occurs, recorded as a version counter. Every wait loop in the
     codebase re-checks its condition from scratch after each spin and its
     body has no effect when nothing changed, so re-running a parked fiber
     before any write is a global no-op; skipping those no-op steps loses
     no reachable state and removes spin-loop unrolling from the search
     space entirely. Wakes are conservative (any write wakes every parked
     fiber).

     Parking uses the version current when the fiber last *resumed* from
     a spin — the start of its current wait-loop iteration — not the
     version at spin time: every memory access is its own scheduling
     step, so a wait round's condition reads span several steps, and a
     write interleaved between those reads and the spin would otherwise be
     counted as already-seen — a lost wakeup that leaves the fiber parked
     forever in a livelocked branch. Fibers with no recorded iteration
     start (first spin ever) park stale and re-poll once, which is the
     conservative direction. *)
  let install_parking r =
    Sim.set_spin_hook r.sim (fun fid ->
        Hashtbl.replace r.parked fid
          (Option.value ~default:(-1) (Hashtbl.find_opt r.iter_start fid)))

  let unpark r fid =
    if Hashtbl.mem r.parked fid then begin
      Hashtbl.replace r.iter_start fid r.write_version;
      Hashtbl.remove r.parked fid
    end

  (* ghost progress (done/stop flags, trace growth) also wakes parked
     fibers: those waits read no memory *)
  let eligible r enabled =
    let gh = ghost_hash r in
    if gh <> r.last_ghost then begin
      r.last_ghost <- gh;
      r.write_version <- r.write_version + 1
    end;
    Array.to_list enabled
    |> List.filter (fun fid ->
           match Hashtbl.find_opt r.parked fid with
           | Some v when v = r.write_version -> false
           | _ -> true)

  (* The root fiber builds the construction, spawns one fiber per worker
     running its op list, waits for them, then stops and syncs. *)
  let spawn_workload r ~cfg ~scope ~topo ~workload =
    ignore
      (Sim.spawn r.sim ~socket:0 (fun () ->
           let uc = S.create r.mem (Roots.make r.mem) cfg in
           r.uc <- Some uc;
           if scope.persistence then S.start_persistence uc;
           for w = 0 to scope.threads - 1 do
             let socket, core = Sim.Topology.place topo w in
             let ops = workload.(w) in
             Sim.spawn_here ~socket ~core (fun () ->
                 S.register_worker uc;
                 List.iter (fun (op, args) -> S.execute uc ~op ~args) ops;
                 r.done_count <- r.done_count + 1)
           done;
           r.runtime <- true;
           while r.done_count < scope.threads do
             Sim.spin ()
           done;
           S.stop uc;
           S.sync uc))

  (** Explore every interleaving and every reachable crash frontier of the
      small-scope workload, running [cfg]'s construction with
      [scope.threads] workers. Stops at the first violation (it carries a
      replayable decision trace) or when the space/budget is exhausted.

      [shard = (i, n)] splits the oracle work for a parallel campaign:
      every shard replays the *identical* schedule DFS (all sleep-set and
      state-dedup bookkeeping included — scheduling cost is replicated,
      not divided), but performs only the crash recoveries and terminal
      model-replays whose dedup hash falls in its residue class. A skipped
      check is state-neutral (the memory snapshot would have been restored
      anyway), so shards stay in lockstep; [merge_shards] reassembles the
      full result and audits that lockstep. The default [(0, 1)] is the
      exact unsharded search. *)
  let explore ?(budget = default_budget) ?(shard = (0, 1))
      (cfg : Prep.Config.t) ~gen_op ~scope () =
    if scope.threads < 1 || scope.threads > max_threads scope then
      invalid_arg "Explore: thread count out of range";
    let shard_ix, shard_n = shard in
    if shard_n < 1 || shard_ix < 0 || shard_ix >= shard_n then
      invalid_arg "Explore: shard index out of range";
    let mine h = shard_n = 1 || (h land max_int) mod shard_n = shard_ix in
    let cfg = { cfg with Prep.Config.workers = scope.threads } in
    let topo = topology scope in
    let workload = gen_workload ~gen_op ~scope in
    let stats = new_stats () in
    (* state key -> sleep-set signatures it was explored under. Plain
       state caching is unsound combined with sleep sets (Godefroid): a
       state first visited under sleep set C only explores transitions
       outside C, so a revisit under sleep set S may be pruned only when
       some cached C ⊆ S — otherwise transitions in C \ S were never
       covered and the revisit must re-explore. *)
    let seen_states : (int, (int * int) list list) Hashtbl.t =
      Hashtbl.create 4096
    in
    let seen_crash : (int, unit) Hashtbl.t = Hashtbl.create 4096 in
    let seen_frontier_base : (int, unit) Hashtbl.t = Hashtbl.create 4096 in
    let terminal_states : (int list, unit) Hashtbl.t = Hashtbl.create 64 in
    let path : node list ref = ref [] in
    let budget_hit = ref false in
    let depth_cut = ref false in
    let truncated = ref false in
    (* the recovery simulation runs nested inside the schedule's: keep the
       global allocator-context table of the live run intact around it *)
    let recover f =
      let saved_ctx = Context.save () in
      recover_in topo f;
      Context.restore saved_ctx
    in

    (* ---- one schedule execution (stateless re-execution) ---- *)
    let run_once () =
      let prefix_nodes = Array.of_list (List.rev !path) in
      let process_from = Array.length prefix_nodes - 1 in
      let r = new_run ~scope topo in
      let mem = r.mem in
      (* Per-fiber control state, tracked *exactly*: a hash chain over the
         fiber's entire observation history — every access it performed,
         with address, kind and the value read or written. The fibers run
         deterministic code whose only inputs are these observations (plus
         the ghost state hashed separately), so equal chains imply equal
         continuations, which is what makes state-hash dedup sound. *)
      let chains : (int, int) Hashtbl.t = Hashtbl.create 16 in
      (* a freshly spawned fiber parks at its first op_point having touched
         nothing: without this bit its start-step would hash like a no-op
         and be dedup-pruned, losing every schedule where its first access
         happens early *)
      let started : (int, unit) Hashtbl.t = Hashtbl.create 16 in
      let cur_fp : fp ref = ref [] in
      let hook key addr write value =
        let fid = (Sim.self ()).Sim.fid in
        cur_fp := (key, write) :: !cur_fp;
        if write then r.write_version <- r.write_version + 1;
        let av = h2 addr (h2 key (h2 (if write then 1 else 0) value)) in
        Hashtbl.replace chains fid
          (h2 (Option.value ~default:0 (Hashtbl.find_opt chains fid)) av)
      in
      Memory.set_access_hook mem hook;
      install_parking r;
      let decision_idx = ref 0 in
      let step_idx = ref 0 in
      let decisions_rev = ref [] in
      let pending_sleep : (int * fp) list ref = ref [] in
      let attr_node : node option ref = ref None in

      let state_key enabled =
        let h =
          ref
            (h2 (Memory.value_hash mem)
               (h2 (Memory.media_hash mem)
                  (h2 (Memory.dirty_hash mem) (Memory.wpq_hash mem))))
        in
        h := h2 !h (ghost_hash r);
        Array.iter
          (fun fid ->
            let chain = Option.value ~default:0 (Hashtbl.find_opt chains fid) in
            let fextra =
              match Sim.find_fiber r.sim fid with
              | Some f ->
                h2
                  ((if f.Sim.palloc then 2 else 0)
                  + (if Hashtbl.mem started fid then 1 else 0))
                  (Int64.to_int f.Sim.frng.Sim.Rng.state)
              | None -> 0
            in
            h := h2 !h (h2 fid (h2 chain fextra)))
          enabled;
        !h
      in

      (* crash a memory snapshot into one frontier image, recover, judge *)
      let check_crash uc ~snap ~lines ~mask ~this_step =
        stats.recoveries <- stats.recoveries + 1;
        Memory.clear_access_hook mem;
        Array.iteri
          (fun b key -> if mask land (1 lsl b) <> 0 then Memory.commit_line mem key)
          lines;
        Memory.crash mem;
        let j = S.recover_and_judge uc ~topo ~run:recover in
        if j.Sut.lost > stats.max_completed_loss then
          stats.max_completed_loss <- j.Sut.lost;
        Memory.restore mem snap;
        Memory.set_access_hook mem hook;
        if j.Sut.violations <> [] then
          raise
            (Violation_found
               {
                 v_decisions = List.rev !decisions_rev;
                 v_crash = Some (this_step, mask);
                 v_violations = j.Sut.violations;
                 v_logged = j.Sut.logged;
                 v_completed = j.Sut.completed;
                 v_applied = j.Sut.applied;
               })
      in

      (* crash a memory snapshot into every not-yet-seen frontier image *)
      let enumerate_crash_frontiers uc this_step =
        let dirty = Memory.dirty_nvm_line_keys mem in
        let k_all = List.length dirty in
        let k = min k_all budget.max_frontier_lines in
        if k_all > k then begin
          truncated := true;
          stats.frontier_truncations <- stats.frontier_truncations + 1
        end;
        let lines = Array.of_list dirty in
        let lines = Array.sub lines 0 k in
        let deltas = Array.map (Memory.line_commit_delta mem) lines in
        let base_media = Memory.media_hash mem in
        let th = S.crash_key uc in
        (* the reachable frontier images are fully determined by
           (media, per-line deltas, ghost): skip the whole point if that
           combination was already enumerated *)
        let base_key =
          h2 base_media (h2 th (Array.fold_left h2 (mix k) deltas))
        in
        if not (Hashtbl.mem seen_frontier_base base_key) then begin
          Hashtbl.add seen_frontier_base base_key ();
          stats.crash_points <- stats.crash_points + 1;
          let snap = ref None in
          let cur = ref 0 in
          let prev_gray = ref 0 in
          for i = 0 to (1 lsl k) - 1 do
            let gray = i lxor (i lsr 1) in
            let changed = gray lxor !prev_gray in
            if changed <> 0 then begin
              let b = ref 0 in
              while changed land (1 lsl !b) = 0 do incr b done;
              cur := !cur lxor deltas.(!b)
            end;
            prev_gray := gray;
            stats.frontiers <- stats.frontiers + 1;
            let sg = h2 (base_media lxor !cur) th in
            if not (Hashtbl.mem seen_crash sg) then begin
              Hashtbl.add seen_crash sg ();
              if mine sg then begin
                let snap =
                  match !snap with
                  | Some s -> s
                  | None ->
                    let s = Memory.snapshot mem in
                    snap := Some s;
                    s
                in
                check_crash uc ~snap ~lines ~mask:gray ~this_step
              end
            end
          done
        end
      in

      let chooser (enabled : int array) : int =
        let pick fid =
          unpark r fid;
          Hashtbl.replace started fid ();
          fid
        in
        if not r.runtime then pick enabled.(0)
        else begin
          (* a step just finished: attribute and consume its footprint *)
          let fp = !cur_fp in
          cur_fp := [];
          (match !attr_node with
           | Some n ->
             n.nd_fp <- fp;
             attr_node := None
           | None -> ());
          if fp <> [] && !pending_sleep <> [] then
            pending_sleep :=
              List.filter (fun (_, f) -> not (fp_conflict f fp)) !pending_sleep;
          let this_step = !step_idx in
          incr step_idx;
          stats.steps <- stats.steps + 1;
          if !step_idx > budget.max_steps then begin
            depth_cut := true;
            stats.depth_cutoffs <- stats.depth_cutoffs + 1;
            raise Pruned
          end;
          let processing = !decision_idx > process_from in
          let eligible = eligible r enabled in
          (* Every runnable fiber is parked at the current version: no
             fiber's wait condition can ever change again along this
             schedule (the re-checks are memoryless), so its only
             continuations are unfair infinite stutters. Cut it. *)
          if eligible = [] then begin
            stats.stutter_cuts <- stats.stutter_cuts + 1;
            raise Pruned
          end;
          let eligible = Array.of_list eligible in
          if processing then begin
            (match r.uc with
             | Some uc when cfg.Prep.Config.mode <> Prep.Config.Volatile ->
               enumerate_crash_frontiers uc this_step
             | _ -> ());
            if Array.length eligible > 1 then begin
              let fresh_state = ref true in
              if scope.prune then begin
                let key = state_key enabled in
                let sig_of_sleep sl =
                  List.map
                    (fun (fid, f) ->
                      ( fid,
                        List.fold_left
                          (fun acc (k, w) -> acc lxor h2 k (if w then 1 else 0))
                          0 f ))
                    sl
                  |> List.sort_uniq compare
                in
                let s = sig_of_sleep !pending_sleep in
                let subset c = List.for_all (fun x -> List.mem x s) c in
                (match Hashtbl.find_opt seen_states key with
                 | Some cached when List.exists subset cached ->
                   stats.dedup_hits <- stats.dedup_hits + 1;
                   raise Pruned
                 | Some cached ->
                   fresh_state := false;
                   (* drop cached supersets of [s]: [s] subsumes them *)
                   let cached =
                     List.filter
                       (fun c -> not (List.for_all (fun x -> List.mem x c) s))
                       cached
                   in
                   Hashtbl.replace seen_states key (s :: cached)
                 | None -> Hashtbl.add seen_states key [ s ])
              end;
              if !fresh_state then stats.states <- stats.states + 1;
              if stats.states >= budget.max_states then begin
                budget_hit := true;
                raise Budget_exhausted
              end
            end
          end;
          if Array.length eligible = 1 then pick eligible.(0)
          else if not processing then begin
            (* replay the DFS prefix *)
            let n = prefix_nodes.(!decision_idx) in
            if n.nd_enabled <> eligible then
              failwith "Explore: replay divergence (internal invariant)";
            incr decision_idx;
            decisions_rev := n.nd_choice :: !decisions_rev;
            pending_sleep := n.nd_sleep;
            attr_node := Some n;
            pick n.nd_choice
          end
          else begin
            (* extend: open a new branching point *)
            let sleep = !pending_sleep in
            let asleep fid = List.exists (fun (q, _) -> q = fid) sleep in
            match
              Array.to_list eligible |> List.filter (fun f -> not (asleep f))
            with
            | [] ->
              (* every eligible move sleeps: all successors covered elsewhere *)
              stats.sleep_skips <- stats.sleep_skips + Array.length eligible;
              raise Pruned
            | c :: _ ->
              let n =
                {
                  nd_enabled = eligible;
                  nd_sleep = sleep;
                  nd_tried = [];
                  nd_choice = c;
                  nd_fp = [];
                }
              in
              path := n :: !path;
              incr decision_idx;
              decisions_rev := c :: !decisions_rev;
              attr_node := Some n;
              pick c
          end
        end
      in
      Sim.set_chooser r.sim chooser;
      spawn_workload r ~cfg ~scope ~topo ~workload;
      (match Sim.run r.sim () with
       | `Done -> ()
       | `Cut _ -> assert false);
      (* terminal: quiescent state must equal the full-trace model replay *)
      let uc = Option.get r.uc in
      stats.terminals <- stats.terminals + 1;
      Hashtbl.replace terminal_states (S.snapshot uc) ();
      (* terminal model-replay is sharded by decision-trace hash; snapshot
         collection above is not (every shard sees every terminal) *)
      let dh =
        List.fold_left h2 (mix (List.length !decisions_rev)) !decisions_rev
      in
      if mine dh then begin
        let j = S.judge_quiescent uc in
        if j.Sut.violations <> [] then
          raise
            (Violation_found
               {
                 v_decisions = List.rev !decisions_rev;
                 v_crash = None;
                 v_violations = j.Sut.violations;
                 v_logged = j.Sut.logged;
                 v_completed = j.Sut.completed;
                 v_applied = j.Sut.applied;
               })
      end
    in

    (* ---- DFS driver ---- *)
    let rec backtrack () =
      match !path with
      | [] -> false
      | n :: rest ->
        (* a step with no memory footprint (spin-wait, ghost-only progress)
           must not sleep forever — it may behave differently once ghost
           state moves on; give it a wildcard footprint so any subsequent
           access wakes it, leaving only pure stutters pruned *)
        if scope.prune then begin
          let fp = if n.nd_fp = [] then [ (-1, true) ] else n.nd_fp in
          n.nd_sleep <- (n.nd_choice, fp) :: n.nd_sleep
        end;
        n.nd_tried <- n.nd_choice :: n.nd_tried;
        let asleep fid = List.exists (fun (q, _) -> q = fid) n.nd_sleep in
        let tried fid = List.mem fid n.nd_tried in
        (match
           Array.to_list n.nd_enabled
           |> List.filter (fun f -> not (tried f) && not (asleep f))
         with
         | c :: _ ->
           n.nd_choice <- c;
           n.nd_fp <- [];
           true
         | [] ->
           stats.sleep_skips <-
             stats.sleep_skips
             + (Array.length n.nd_enabled - List.length n.nd_tried);
           path := rest;
           backtrack ())
    in
    let violation = ref None in
    (try
       let continue = ref true in
       while !continue do
         if stats.schedules >= budget.max_schedules then begin
           budget_hit := true;
           continue := false
         end
         else begin
           stats.schedules <- stats.schedules + 1;
           (try run_once () with Pruned -> ());
           continue := backtrack ()
         end
       done
     with
    | Violation_found v -> violation := Some v
    | Budget_exhausted -> budget_hit := true);
    {
      stats;
      violation = !violation;
      terminal_states =
        List.sort compare
          (Hashtbl.fold (fun s () acc -> s :: acc) terminal_states []);
      exhausted =
        !violation = None && (not !budget_hit) && (not !depth_cut)
        && not !truncated;
    }

  (** Re-execute exactly one schedule from its decision trace; optionally
      crash at [crash = (step, frontier_mask)] — the mask selects, bit [b],
      the [b]-th dirty NVM line (sorted) at that step — then recover and
      check. Everything is deterministic: replaying a violation's trace
      reproduces its violation. Returns
      (violations, crashed, logged, completed, applied). *)
  let replay (cfg : Prep.Config.t) ~gen_op ~scope ~decisions ?crash () =
    let cfg = { cfg with Prep.Config.workers = scope.threads } in
    let topo = topology scope in
    let workload = gen_workload ~gen_op ~scope in
    let decisions = Array.of_list decisions in
    let r = new_run ~scope topo in
    let decision_idx = ref 0 in
    let step_idx = ref 0 in
    (* the same await-parking as [explore]: decision traces only record
       choices at branching points, so replay must reconstruct the same
       eligible sets to consume them at the same steps *)
    Memory.set_access_hook r.mem (fun _ _ write _ ->
        if write then r.write_version <- r.write_version + 1);
    install_parking r;
    let chooser (enabled : int array) : int =
      if not r.runtime then enabled.(0)
      else begin
        let this_step = !step_idx in
        incr step_idx;
        (match crash with
         | Some (s, mask) when this_step = s ->
           let lines = Array.of_list (Memory.dirty_nvm_line_keys r.mem) in
           Array.iteri
             (fun b key ->
               if mask land (1 lsl b) <> 0 then Memory.commit_line r.mem key)
             lines;
           raise Crash_now
         | _ -> ());
        let eligible =
          match eligible r enabled with
          | [] -> enabled
          | l -> Array.of_list l
        in
        let pick fid =
          unpark r fid;
          fid
        in
        if Array.length eligible = 1 then pick eligible.(0)
        else if !decision_idx < Array.length decisions then begin
          let c = decisions.(!decision_idx) in
          incr decision_idx;
          if not (Array.exists (fun f -> f = c) eligible) then
            failwith "Explore.replay: decision trace does not match execution";
          pick c
        end
        else pick eligible.(0)
      end
    in
    Sim.set_chooser r.sim chooser;
    spawn_workload r ~cfg ~scope ~topo ~workload;
    let crashed =
      try
        (match Sim.run r.sim () with `Done -> () | `Cut _ -> assert false);
        false
      with Crash_now -> true
    in
    let uc = Option.get r.uc in
    let j =
      if crashed then begin
        Memory.clear_access_hook r.mem;
        Memory.crash r.mem;
        S.recover_and_judge uc ~topo ~run:(recover_in topo)
      end
      else S.judge_quiescent uc
    in
    (j.Sut.violations, crashed, j.Sut.logged, j.Sut.completed, j.Sut.applied)
end
