(** Discrete-event simulator with effects-based fibers.

    Simulated threads run in direct style. Every simulated memory access
    charges nanoseconds to the running fiber's clock ([tick]); fibers hand
    control back to the scheduler at synchronization points and whenever
    they exhaust their time quantum. The scheduler always resumes the fiber
    with the smallest clock, so simulated time is globally consistent and a
    run is a deterministic function of its seed.

    The simulator is single-OS-thread by construction: [current ()] style
    accessors are safe. *)

module Rng = Rng
module Topology = Topology
module Costs = Costs

type fiber = {
  fid : int;                  (** unique fiber id *)
  socket : int;               (** NUMA node this fiber is pinned to *)
  core : int;                 (** core within the socket *)
  frng : Rng.t;               (** fiber-private random stream *)
  sim : t;                    (** the simulation the fiber belongs to *)
  current : fiber option;     (** [Some] of this very fiber, built once: the
                                  ambient "current fiber" while it runs *)
  mutable clock : int;        (** fiber-local simulated time, ns *)
  mutable palloc : bool;      (** allocator-swap flag (paper §5.1): when set,
                                  allocations go to the persistent allocator *)
  mutable k : (unit, unit) Effect.Deep.continuation;
      (** where the fiber resumes; stored by its [Yield] handler *)
  mutable wake : int;         (** timed dispatch: its clock at its last yield *)
  mutable seq : int;          (** timed dispatch: yield order, the tie-break *)
  mutable ready : bool;       (** controlled dispatch: runnable *)
}

(** How [run] picks the next fiber. *)
and dispatch =
  | Timed  (** the earliest (wake, seq) first *)
  | Lowest_fid
      (** controlled, before a chooser is installed: the lowest runnable
          fid runs, and memory operations are not scheduling points *)
  | Chooser of (int array -> int)
      (** controlled (model checking): fibers are not dispatched by
          simulated time but by this callback, which is handed the sorted
          fids of every runnable fiber and returns the one to run next.
          Clocks still advance (costs stay meaningful) but impose no
          ordering: the explorer drives *every* interleaving through here,
          including ones timed dispatch would never emit. *)

and t = {
  topology : Topology.t;
  costs : Costs.t;
  rng : Rng.t;                    (** scheduler stream (background flushes etc.) *)
  quantum : int;
  preempt_prob : float;           (** chance per [tick] of a forced, jittered
                                      preemption (schedule fuzzing) *)
  mutable dispatch : dispatch;
  mutable heap : fiber array;     (** timed ready heap, ordered by (wake, seq) *)
  mutable heap_len : int;
  mutable next_seq : int;
  mutable fibers : fiber array;
      (** every spawned fiber, indexed by fid (harness inspection, and the
          controlled ready set: a scan in fid order yields sorted fids) *)
  mutable next_fid : int;
  mutable n_ready : int;          (** controlled dispatch: runnable fibers *)
  mutable running : bool;
  mutable spin_hook : (int -> unit) option;
      (** controlled mode only: called with the executing fid each time it
          enters a [spin] wait iteration, so a model checker can park the
          fiber until a write makes re-checking its condition worthwhile *)
  switches : Telemetry.Registry.counter;
      (** scheduler counters, resolved at [create] against the ambient
          telemetry registry (a private one when none is installed) *)
  spins : Telemetry.Registry.counter;
  preemptions : Telemetry.Registry.counter;
  fibers_spawned : Telemetry.Registry.counter;
}

type _ Effect.t += Yield : unit Effect.t

(* A continuation that is never resumed: the placeholder a fiber record
   holds for the instant between its creation and its first [Yield]. *)
let no_k : (unit, unit) Effect.Deep.continuation =
  let k : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with Effect.perform Yield
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with Yield -> Some (fun c -> k := Some c) | _ -> None);
    };
  Option.get !k

(* The ambient simulation state is domain-local, not global: a simulation
   is single-OS-thread by construction, but *independent* simulations may
   run concurrently on separate domains (Harness.Campaign). Each domain
   sees only its own "current sim / current fiber" slot, so the
   [current ()]-style accessors stay safe without any locking. *)
type ambient = { mutable amb_sim : t option; mutable amb_fiber : fiber option }

let ambient_key : ambient Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { amb_sim = None; amb_fiber = None })

let ambient () = Domain.DLS.get ambient_key

(* Teach the telemetry layer (which sits below us in the dependency order)
   how to read simulated time and identify the current track. Outside a
   fiber both report 0, matching Registry's defaults. Recording telemetry
   never ticks the clock or consumes simulated randomness, so an installed
   registry cannot perturb a run. *)
let () =
  Telemetry.Registry.set_clock (fun () ->
      match (ambient ()).amb_fiber with Some f -> f.clock | None -> 0);
  Telemetry.Registry.set_track (fun () ->
      match (ambient ()).amb_fiber with Some f -> f.fid | None -> 0)

let instance () =
  match (ambient ()).amb_sim with
  | Some s -> s
  | None -> failwith "Sim: no simulation running"

let self () =
  match (ambient ()).amb_fiber with
  | Some f -> f
  | None -> failwith "Sim: not inside a fiber"

(** [preempt_prob] randomizes preemption: on each [tick], with that
    probability, the fiber is charged up to one extra quantum of jitter and
    forced to yield. This perturbs which fiber is globally earliest at
    synchronization points, so different seeds explore different
    interleavings — deterministic schedule fuzzing for the crash harness.
    The default 0.0 keeps the exact seed behaviour. *)
let create ?(seed = 1L) ?(costs = Costs.default) ?(quantum = 150)
    ?(preempt_prob = 0.0) topology =
  let reg = Telemetry.Registry.current_or_new () in
  let counter name = Telemetry.Registry.counter reg ("sim." ^ name) in
  {
    topology;
    costs;
    rng = Rng.create seed;
    quantum;
    preempt_prob;
    dispatch = Timed;
    heap = [||];
    heap_len = 0;
    next_seq = 0;
    fibers = [||];
    next_fid = 0;
    n_ready = 0;
    running = false;
    spin_hook = None;
    switches = counter "switches";
    spins = counter "spins";
    preemptions = counter "preemptions";
    fibers_spawned = counter "fibers_spawned";
  }

(** Switch the simulation into controlled-scheduler mode, before any fiber
    is spawned. Until a chooser is installed ([set_chooser]) the lowest
    runnable fid runs and memory operations are not scheduling points: a
    model checker lets the set-up phase run straight through this way and
    installs its chooser where the interleavings it explores begin. *)
let set_controlled t =
  if t.next_fid > 0 then invalid_arg "Sim.set_controlled: fibers already spawned";
  match t.dispatch with Timed -> t.dispatch <- Lowest_fid | Lowest_fid | Chooser _ -> ()

(** Install the controlled-mode chooser (see [dispatch]): before [run] and
    before any spawn, or at any time in a [set_controlled] simulation —
    including from one of its own fibers, mid-run. *)
let set_chooser t f =
  (match t.dispatch with
   | Timed when t.next_fid > 0 ->
     invalid_arg "Sim.set_chooser: timed fibers already spawned"
   | Timed | Lowest_fid | Chooser _ -> ());
  t.dispatch <- Chooser f

(** Install the controlled-mode spin notification (see [t.spin_hook]). *)
let set_spin_hook t h = t.spin_hook <- Some h

(** The spawned fiber [fid] (harness inspection). *)
let fiber t fid =
  if fid < 0 || fid >= t.next_fid then invalid_arg "Sim.fiber: unknown fid";
  t.fibers.(fid)

(* ---- binary min-heap of fibers ordered by (wake, seq) ---- *)

let before a b = a.wake < b.wake || (a.wake = b.wake && a.seq < b.seq)

(* The sift loops take everything they use as arguments: a local
   recursive function capturing [t] would be a closure allocated on every
   push and pop. *)
let rec sift_up t f i =
  let parent = (i - 1) / 2 in
  if i > 0 && before f t.heap.(parent) then begin
    t.heap.(i) <- t.heap.(parent);
    sift_up t f parent
  end
  else t.heap.(i) <- f

(* Children are compared only once they are known to lie within [n]. *)
let rec sift_down t last n i =
  let l = (2 * i) + 1 in
  if l >= n then t.heap.(i) <- last
  else begin
    let r = l + 1 in
    let c = if r < n && before t.heap.(r) t.heap.(l) then r else l in
    if before t.heap.(c) last then begin
      t.heap.(i) <- t.heap.(c);
      sift_down t last n c
    end
    else t.heap.(i) <- last
  end

let heap_push t f =
  if t.heap_len = Array.length t.heap then begin
    let bigger = Array.make (max 64 (2 * t.heap_len)) f in
    Array.blit t.heap 0 bigger 0 t.heap_len;
    t.heap <- bigger
  end;
  t.heap_len <- t.heap_len + 1;
  sift_up t f (t.heap_len - 1)

(* Remove the earliest fiber; the heap must not be empty. *)
let heap_pop t =
  let top = t.heap.(0) in
  let n = t.heap_len - 1 in
  t.heap_len <- n;
  if n > 0 then sift_down t t.heap.(n) n 0;
  top

let schedule t f =
  match t.dispatch with
  | Timed ->
    f.wake <- f.clock;
    f.seq <- t.next_seq;
    t.next_seq <- t.next_seq + 1;
    heap_push t f
  | Lowest_fid | Chooser _ ->
    f.ready <- true;
    t.n_ready <- t.n_ready + 1

(* ---- fiber lifecycle ---- *)

(** [spawn t ~socket ?core f] registers a fiber pinned to [socket]/[core].
    If called from inside a running fiber, the child starts at the parent's
    current clock; otherwise at time 0. *)
let spawn t ~socket ?(core = 0) ?(at = -1) f =
  if socket < 0 || socket >= t.topology.Topology.sockets then
    invalid_arg "Sim.spawn: bad socket";
  let clock =
    if at >= 0 then at
    else
      match (ambient ()).amb_fiber with
      | Some parent -> parent.clock
      | None -> 0
  in
  let fid = t.next_fid and frng = Rng.split t.rng in
  let rec fiber =
    { fid; socket; core; frng; sim = t; current = Some fiber; clock;
      palloc = false; k = no_k; wake = 0; seq = 0; ready = false }
  in
  if fid = Array.length t.fibers then begin
    let bigger = Array.make (max 16 (2 * fid)) fiber in
    Array.blit t.fibers 0 bigger 0 fid;
    t.fibers <- bigger
  end;
  t.fibers.(fid) <- fiber;
  t.next_fid <- fid + 1;
  Telemetry.Registry.incr t.fibers_spawned;
  Telemetry.Registry.cur_name_track fid
    (Printf.sprintf "fiber-%d (s%d.c%d)" fid socket core);
  (* The one [Yield] handler of this fiber: it stores the continuation in
     the record and queues the fiber, allocating nothing. The body starts
     with a [Yield], so the fiber is queued here exactly as every later
     yield queues it. *)
  let on_yield =
    Some
      (fun k ->
        fiber.k <- k;
        schedule t fiber)
  in
  Effect.Deep.match_with
    (fun () ->
      Effect.perform Yield;
      f ())
    ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with Yield -> on_yield | _ -> None);
    };
  fiber

(* the sorted fids of the runnable fibers (controlled dispatch) *)
let ready_fids t =
  let fids = Array.make t.n_ready 0 in
  let j = ref 0 in
  for fid = 0 to t.next_fid - 1 do
    if t.fibers.(fid).ready then begin
      fids.(!j) <- fid;
      incr j
    end
  done;
  fids

let lowest_ready t =
  let fid = ref 0 in
  while not t.fibers.(!fid).ready do incr fid done;
  !fid

(** [run t ~until ()] dispatches fibers in simulated-time order. Returns
    [`Done] when every fiber has finished, or [`Cut t] when the next
    runnable fiber's clock exceeds [until] — which models a full-system
    power failure at time [until]: in-flight fibers are simply abandoned,
    exactly as a crash abandons in-flight threads. *)
let run ?(until = max_int) t () =
  if t.running then failwith "Sim.run: reentrant run";
  (* Save the caller's simulation (if any) instead of clearing the globals:
     the explorer runs a whole recovery simulation from inside a scheduler
     callback of an outer controlled run, and must find the outer sim intact
     afterwards. *)
  let amb = ambient () in
  let saved_sim = amb.amb_sim and saved_fiber = amb.amb_fiber in
  t.running <- true;
  amb.amb_sim <- Some t;
  let cleanup () =
    t.running <- false;
    amb.amb_sim <- saved_sim;
    amb.amb_fiber <- saved_fiber
  in
  let resume f =
    amb.amb_fiber <- f.current;
    Effect.Deep.continue f.k ()
  in
  let rec timed_loop () =
    if t.heap_len = 0 then `Done
    else if t.heap.(0).wake > until then `Cut t.heap.(0).wake
    else begin
      resume (heap_pop t);
      timed_loop ()
    end
  in
  (* Controlled dispatch: every runnable fiber is a candidate at every step;
     the chooser (the explorer) picks. It is called even with a single
     candidate — that call doubles as the explorer's per-step hook (state
     dedup, crash-frontier enumeration). [until] does not apply: there is
     no global time order to cut. A fiber may install the chooser mid-run,
     so the dispatch is re-read at every step. *)
  let rec controlled_loop () =
    if t.n_ready = 0 then `Done
    else begin
      let fid =
        match t.dispatch with
        | Chooser choose -> choose (ready_fids t)
        | Lowest_fid | Timed -> lowest_ready t
      in
      if fid < 0 || fid >= t.next_fid || not t.fibers.(fid).ready then
        failwith "Sim.run: chooser picked a non-runnable fid";
      let f = t.fibers.(fid) in
      f.ready <- false;
      t.n_ready <- t.n_ready - 1;
      resume f;
      controlled_loop ()
    end
  in
  let loop () =
    match t.dispatch with
    | Timed -> timed_loop ()
    | Lowest_fid | Chooser _ -> controlled_loop ()
  in
  (* An exception escaping a fiber (e.g. a crash hook firing mid-access)
     abandons the whole run, like a power failure; reset the globals so a
     fresh simulation can be started for recovery. *)
  match loop () with
  | result -> cleanup (); result
  | exception e -> cleanup (); raise e

(* ---- fiber-facing API ---- *)

let now () = (self ()).clock

let costs () = (instance ()).costs

(** Charge [cost] ns to fiber [f], the running fiber ([self ()]): the form
    for callers that already hold it, such as every memory operation.

    Causality rule: a fiber may keep executing only while it is the
    globally earliest runnable fiber. As soon as its clock passes another
    fiber's wake time it yields, so every memory operation executes in
    simulated-time order — which is what makes locks and CAS exclusion
    sound in simulated time (a fiber can never observe a "future" write
    of a logically-later fiber). *)
let charge f cost =
  f.clock <- f.clock + cost;
  let t = f.sim in
  match t.dispatch with
  | Lowest_fid | Chooser _ ->
    (* Controlled mode: scheduling points live at operation *starts*
       ([choice_point]), so the whole operation — charge plus effect —
       executes as one indivisible step once chosen. Yielding here too
       would split an operation across two steps and misattribute its
       memory footprint. *)
    ()
  | Timed ->
    if t.preempt_prob > 0.0 && Rng.float t.rng < t.preempt_prob then begin
      f.clock <- f.clock + Rng.int t.rng t.quantum;
      Telemetry.Registry.incr t.preemptions;
      Effect.perform Yield
    end
    else if t.heap_len > 0 && t.heap.(0).wake < f.clock then begin
      Telemetry.Registry.incr t.switches;
      Effect.perform Yield
    end

(** Charge [cost] ns to the running fiber (see [charge]). *)
let tick cost = charge (self ()) cost

(** The scheduling point at the start of a memory operation, for fiber [f],
    the running fiber: under an installed chooser every fiber-facing memory
    operation is a choice point, taken *before* the operation has any
    effect so the explorer observes a consistent between-operations state.
    A no-op under timed dispatch and before the chooser is installed. *)
let choice_point f =
  match f.sim.dispatch with
  | Chooser _ -> Effect.perform Yield
  | Timed | Lowest_fid -> ()

(** Force a scheduling point without advancing time. *)
let yield () = Effect.perform Yield

(** One iteration of a spin-wait loop: charge the spin cost and give the
    scheduler a chance to run whoever we are waiting for. *)
let spin () =
  let f = self () in
  let s = f.sim in
  f.clock <- f.clock + s.costs.Costs.spin;
  Telemetry.Registry.incr s.spins;
  (match s.spin_hook with Some h -> h f.fid | None -> ());
  Effect.perform Yield

(** Advance the fiber's clock to [time] (no-op if already past). *)
let sleep_until time =
  let f = self () in
  if time > f.clock then f.clock <- time;
  Effect.perform Yield

let fiber_rng () = (self ()).frng
let socket () = (self ()).socket
let sim_rng () = (instance ()).rng
let topology () = (instance ()).topology

(** Spawn a sibling fiber from inside a running fiber. *)
let spawn_here ~socket ?core f =
  ignore (spawn (instance ()) ~socket ?core f)

(** Run [f] as a single fiber on socket 0 of a fresh default simulation and
    return its result. Convenience for tests and sequential examples. *)
let run_one ?(seed = 1L) ?(topology = Topology.default) f =
  let sim = create ~seed topology in
  let result = ref None in
  ignore (spawn sim ~socket:0 (fun () -> result := Some (f ())));
  (match run sim () with
   | `Done -> ()
   | `Cut _ -> failwith "Sim.run_one: unexpected cut");
  match !result with
  | Some r -> r
  | None -> failwith "Sim.run_one: fiber did not complete"
