(** One simulated pass of a workload, driving the system only from
    outside: a closed loop through [Harness.Experiment.run] with a
    [system] record the benchmark builds itself (so it can time [make]
    and read [Sim.now] around every [exec]), a power failure at the end
    of the measured window, then [Prep_uc.recover] in a fresh simulation
    — as [prep_cli crash] does. *)

open Nvm
module H = Seqds.Hashmap
module Uc = Prep.Prep_uc.Make (H)

exception Power_failure

(* growable int buffer for per-op latency samples *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(** Host-clock intervals of one pass, for the benchmark's own trace
    spans: (name, start, end) in [Unix.gettimeofday] seconds. *)
type phase = string * float * float

(** Ops per host-time chunk: the loaded run's host CPU time is read every
    [chunk_ops] ops a worker issues. Passes are deterministic, so the
    chunks of two runs of one pass cover the same simulated work. *)
let chunk_ops = 1000

type pass = {
  seed : int64;
  setup_s : float;  (** host CPU s in [make]: construction + prefill *)
  chunks : float array;
      (** host CPU s of the loaded run after set-up, per [chunk_ops] ops
          issued, up to the power failure *)
  run_host_s : float;  (** their sum *)
  live_words : int;
      (** OCaml live heap at the power failure, after a full major GC,
          less the benchmark's latency buffer *)
  recover_host_s : float;  (** host CPU s of [Prep_uc.recover] *)
  attempted : int;  (** ops the workers issued *)
  updates : int;  (** of which updates (insert/remove) *)
  lat : int array;  (** simulated ns of every op acknowledged in the window *)
  window_ns : int;
  recovery_ns : int;  (** simulated time from restart to a recovered instance *)
  completed : int;  (** ops acknowledged before the power failure *)
  applied : int;  (** ops present in the recovered state *)
  lost : int;  (** acknowledged ops missing from the recovered state *)
  failures : string list;  (** correctness checks that failed *)
  counters : (string * int) list;  (** the instance's own counters *)
  snapshot : Telemetry.Registry.snapshot option;
      (** traced pass only: the live registry at the power failure *)
  phases : phase list;
}

let topology (l : Spec.load) =
  { Sim.Topology.sockets = l.sockets; cores_per_socket = l.cores }

let workload (l : Spec.load) =
  let prefill_n = l.keys / 2 in
  match l.zipf with
  | None ->
    Harness.Workload.map_workload ~read_pct:l.read_pct ~key_range:l.keys
      ~prefill_n
  | Some theta ->
    Harness.Workload.map_workload_zipf ~theta ~read_pct:l.read_pct
      ~key_range:l.keys ~prefill_n

let loss_bound (l : Spec.load) =
  Spec.loss_bound l.mode ~epsilon:l.epsilon ~cores:l.cores

let run ?telemetry (l : Spec.load) ~seed =
  let topology = topology l in
  let lat = Samples.create () in
  let attempted = ref 0 and updates = ref 0 in
  let setup = ref (0.0, 0.0, 0.0) (* cpu, wall start, wall end *) in
  let marks = ref [] (* host CPU at chunk boundaries, newest first *) in
  let inst = ref None in
  let system =
    {
      Harness.Experiment.sys_name = "perfbench";
      duration_factor = 1;
      make =
        (fun mem roots ~workers ~prefill ->
          let c0 = Sys.time () and w0 = Unix.gettimeofday () in
          let cfg =
            Prep.Config.make ~mode:l.mode ~log_size:l.log_size
              ~epsilon:l.epsilon ~workers ()
          in
          let uc = Uc.create ~prefill mem roots cfg in
          Uc.start_persistence uc;
          let c1 = Sys.time () in
          setup := (c1 -. c0, w0, Unix.gettimeofday ());
          marks := [ c1 ];
          inst := Some (mem, uc);
          let measure_start = Sim.now () + l.warmup_ns in
          let deadline = measure_start + l.window_ns in
          (* the power failure: a fiber that wakes at the end of the
             window and aborts the whole simulation *)
          Sim.spawn_here ~socket:0 (fun () ->
              Sim.sleep_until deadline;
              raise Power_failure);
          {
            Harness.Experiment.register = (fun () -> Uc.register_worker uc);
            exec =
              (fun ~op ~args ->
                incr attempted;
                if !attempted mod chunk_ops = 0 then
                  marks := Sys.time () :: !marks;
                if op <> H.op_get then incr updates;
                let t0 = Sim.now () in
                let r = Uc.execute uc ~op ~args in
                let t1 = Sim.now () in
                if t1 > measure_start && t1 <= deadline then
                  Samples.push lat (t1 - t0);
                r);
            exec_batch = None;
            teardown = (fun () -> Uc.stop uc);
            sample = (fun reg -> Uc.sample uc reg);
          });
    }
  in
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  let w0 = Unix.gettimeofday () in
  (* the loop would run twice the window; the power failure ends it *)
  (match
     Harness.Experiment.run ~seed ~topology ~warmup_ns:l.warmup_ns
       ~duration_ns:(2 * l.window_ns) ?telemetry ~system
       ~workload:(workload l) ~workers:l.workers ()
   with
   | _ -> fail "run ended before the power failure"
   | exception Power_failure -> ()
   | exception e -> fail ("run raised " ^ Printexc.to_string e));
  let setup_s, sw0, sw1 = !setup in
  let ends = Array.of_list (List.rev (Sys.time () :: !marks)) in
  let chunks =
    Array.init (Array.length ends - 1) (fun i -> ends.(i + 1) -. ends.(i))
  in
  let run_host_s = Array.fold_left ( +. ) 0.0 chunks in
  Gc.full_major ();
  let live_words =
    (Gc.quick_stat ()).live_words - (Array.length lat.Samples.a + 4)
  in
  let w1 = Unix.gettimeofday () in
  match !inst with
  | None ->
    {
      seed; setup_s; chunks; run_host_s; live_words; recover_host_s = 0.0;
      attempted = !attempted; updates = !updates; lat = [||];
      window_ns = l.window_ns; recovery_ns = 0; completed = 0; applied = 0;
      lost = 0; failures = "construction failed" :: !failures;
      counters = []; snapshot = None; phases = [];
    }
  | Some (mem, uc) ->
    let own = Telemetry.Registry.create () in
    Uc.sample uc own;
    let counters = (Telemetry.Registry.snapshot own).sn_counters in
    let snapshot =
      Option.map
        (fun reg ->
          Uc.sample uc reg;
          Telemetry.Registry.snapshot reg)
        telemetry
    in
    Memory.crash mem;
    Context.reset ();
    let w2 = Unix.gettimeofday () in
    let completed =
      List.length (Prep.Trace.completed_indexes (Uc.trace uc))
    in
    let sim = Sim.create ~seed:(Int64.succ seed) topology in
    let outcome = ref None in
    ignore
      (Sim.spawn sim ~socket:0 (fun () ->
           let t0 = Sim.now () in
           let _, report = Uc.recover uc in
           outcome := Some (Sim.now () - t0, report)));
    let c1 = Sys.time () in
    (match Sim.run sim () with
     | `Done -> ()
     | `Cut _ -> ()
     | exception e -> fail ("recovery raised " ^ Printexc.to_string e));
    let recover_host_s = Sys.time () -. c1 in
    let w3 = Unix.gettimeofday () in
    let recovery_ns, applied, lost =
      match !outcome with
      | None ->
        fail "recovery did not finish";
        (0, 0, 0)
      | Some (ns, r) ->
        let bound = loss_bound l in
        if r.Prep.Prep_uc.lost_completed > bound then
          fail
            (Printf.sprintf "lost %d acknowledged ops, bound %d"
               r.lost_completed bound);
        if not r.contiguous_prefix then
          fail "recovered ops are not a contiguous prefix";
        if r.skipped_completed <> 0 then
          fail
            (Printf.sprintf "%d completed ops skipped as log holes"
               r.skipped_completed);
        (ns, List.length r.applied, r.lost_completed)
    in
    {
      seed; setup_s; chunks; run_host_s; live_words; recover_host_s;
      attempted = !attempted;
      updates = !updates; lat = Samples.to_array lat;
      window_ns = l.window_ns; recovery_ns; completed; applied; lost;
      failures = List.rev !failures; counters; snapshot;
      phases =
        [ ("experiment", w0, w1); ("setup", sw0, sw1); ("crash", w1, w2);
          ("recovery", w2, w3) ];
    }
