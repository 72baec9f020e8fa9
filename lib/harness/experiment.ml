(** Throughput experiment runner.

    Reproduces the paper's measurement methodology (§6): prefill the
    structure, spawn worker fibers pinned to cores (socket 0 first), run
    the workload for a fixed *simulated* duration after a warmup, and
    report throughput in simulated operations per second. The persistence
    thread (when the system has one) runs on the last core, which is never
    given to a worker. *)

open Nvm

(** A live universal-construction instance, as seen by workers. *)
type instance = {
  register : unit -> unit; (* bind the calling worker fiber *)
  exec : op:int -> args:int array -> int;
  exec_batch : ((int * int array) array -> int array) option;
      (* pipelined batch execution, for systems that can overlap several
         of one worker's ops (the sharded router keeps one update in
         flight per shard); [None] means ops only run one at a time *)
  teardown : unit -> unit; (* stop helper threads so the run can drain *)
  sample : Telemetry.Registry.t -> unit;
      (* port the instance's counters onto a registry, *adding* to values
         already there — sampling several instances into one registry sums
         across instances instead of last-writer-wins *)
}

(** A system under test: builds an instance inside the setup fiber.
    [duration_factor] stretches the measurement window for systems whose
    steady state takes longer to reach (CX-PUC's per-update whole-replica
    flushes would otherwise complete no operation in a short window). *)
type system = {
  sys_name : string;
  duration_factor : int;
  make :
    Memory.t -> Roots.t -> workers:int -> prefill:Workload.op list -> instance;
}

type result = {
  system : string;
  workload : string;
  workers : int;
  ops : int;
  duration_ns : int;
  throughput : float; (* simulated ops/sec *)
  telemetry : Telemetry.Registry.snapshot;
      (** typed snapshot of the run's registry: the memory's NVM counters
          (the flush keys are derived from them), the system-specific
          counters (distributed-lock acquisitions, log mirror
          reads/stores, slot-bitmap scans, ...) summed across instances,
          plus — when the run was given a live registry — scheduler
          counters, phase spans and histograms *)
}

(* The system-specific counter keys that predate the telemetry layer, in
   their original bench-JSON order. [counters] keeps the old
   [result.extra] contract: exactly these keys, with identical values for
   a fixed seed — consumers (CLI, bench JSON) must not notice the
   refactor. *)
let legacy_counter_keys =
  [ "rw_read_acquires"; "rw_writer_sweeps"; "log_primary_reads";
    "log_mirror_reads"; "log_mirror_stores"; "bitmap_empty_exits";
    "bitmap_slots_skipped"; "detect_announces"; "detect_responses";
    "detect_reconciled"; "ckpt_count"; "ckpt_cost_total"; "ckpt_cost_last";
    "lsm_seals"; "lsm_segments_built"; "lsm_keys_sealed"; "lsm_compactions";
    "lsm_segments_live"; "lsm_bloom_skips"; "lsm_range_skips";
    "lsm_seg_finds"; "lsm_materialized" ]

(** The system-specific counters of [r], in the pre-telemetry key order.
    Keys a system never sampled (GL, CX, SOFT) are absent, exactly as
    they were absent from the old stringly [extra] list. *)
let counters r =
  List.filter_map
    (fun k ->
      match List.assoc_opt k r.telemetry.Telemetry.Registry.sn_counters with
      | Some v -> Some (k, v)
      | None -> None)
    legacy_counter_keys

(** [r] as a bench record ([Telemetry.Json.bench_record]). *)
let to_json r =
  Telemetry.Json.bench_record ~system:r.system ~workload:r.workload
    ~workers:r.workers ~ops:r.ops ~duration_ns:r.duration_ns
    ~throughput:r.throughput ~counters:(counters r) r.telemetry

(** Run one throughput experiment.

    [instances] (default 1) builds that many independent instances of the
    system and assigns worker [w] to instance [w mod instances]; all
    instances' counters are summed into the result's registry snapshot.

    [op_batch] (default 1) makes each worker draw that many operations
    from the workload at once and submit them through the instance's
    [exec_batch] (when it has one — systems without it run the batch
    sequentially, so the workload stream and count accounting stay
    comparable). Closed-loop runs of the sharded construction need this
    to express any parallelism beyond the per-shard combiner batch.

    [telemetry] installs a live registry as the run's ambient registry
    (pass a fresh one: the result's flush keys are read from it): the
    memory model, simulator and constructions record per-primitive
    costs, scheduler events and phase spans into it, each worker's
    operations are wrapped in an ["op"] root span, and worker tracks get
    stable names for the trace export. Without it only the memory's
    counters and the instances' samples are recorded, into a private
    registry, so the default path stays cheap and exactly as
    deterministic. *)
let run ?(seed = 7L) ?(topology = Sim.Topology.default)
    ?(duration_ns = 4_000_000) ?(warmup_ns = 800_000) ?(bg_period = 50_000)
    ?(instances = 1) ?(op_batch = 1) ?telemetry ~system
    ~(workload : Workload.t) ~workers () =
  if workers >= Sim.Topology.total_cores topology then
    invalid_arg "Experiment.run: last core is reserved";
  if instances < 1 then invalid_arg "Experiment.run: instances < 1";
  if op_batch < 1 then invalid_arg "Experiment.run: op_batch < 1";
  let duration_ns = duration_ns * system.duration_factor in
  let warmup_ns = warmup_ns * system.duration_factor in
  (* the accumulator registry: the caller's live one, or a private one
     that receives only the memory's counters and the counter samples *)
  let acc =
    match telemetry with
    | Some r -> r
    | None -> Telemetry.Registry.create ()
  in
  (match telemetry with
   | Some r -> Telemetry.Registry.with_current r
   | None -> fun f -> f ())
  @@ fun () ->
  let op_span =
    match telemetry with
    | Some reg -> Some (reg, Telemetry.Registry.span reg "op")
    | None -> None
  in
  let exec_in_op_span inst ~op ~args =
    match op_span with
    | Some (reg, sp) ->
      Telemetry.Registry.with_span reg sp (fun () -> inst.exec ~op ~args)
    | None -> inst.exec ~op ~args
  in
  (* a pipelined batch is one "op" span: its wall time covers op_batch
     operations, which the trace reader must divide out *)
  let batch_in_op_span f ops =
    match op_span with
    | Some (reg, sp) -> Telemetry.Registry.with_span reg sp (fun () -> f ops)
    | None -> f ops
  in
  let sim = Sim.create ~seed topology in
  let mem =
    Telemetry.Registry.with_current acc (fun () ->
        Memory.make ~bg_period ~sockets:topology.Sim.Topology.sockets ())
  in
  let counts = Array.make workers 0 in
  let done_count = ref 0 in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         (* one root directory (it must be arena 0), shared by every
            instance; a throughput run never recovers, so instances
            overwriting each other's root slots is harmless *)
         let roots = Roots.make mem in
         let insts =
           Array.init instances (fun _ ->
               system.make mem roots ~workers
                 ~prefill:workload.Workload.prefill)
         in
         let t0 = Sim.now () in
         let measure_start = t0 + warmup_ns in
         let deadline = measure_start + duration_ns in
         for w = 0 to workers - 1 do
           let socket, core = Sim.Topology.place topology w in
           let inst = insts.(w mod instances) in
           ignore
             (Sim.spawn sim ~socket ~core (fun () ->
                  (match telemetry with
                   | Some reg ->
                     Telemetry.Registry.name_track reg (Sim.self ()).Sim.fid
                       (Printf.sprintf "worker-%d" w)
                   | None -> ());
                  inst.register ();
                  let rng = Sim.fiber_rng () in
                  let phase = ref 0 in
                  (if op_batch = 1 then
                     while Sim.now () < deadline do
                       let op, args =
                         workload.Workload.next rng ~phase:!phase
                       in
                       incr phase;
                       ignore (exec_in_op_span inst ~op ~args);
                       if Sim.now () > measure_start && Sim.now () <= deadline
                       then counts.(w) <- counts.(w) + 1
                     done
                   else
                     while Sim.now () < deadline do
                       let ops =
                         Array.init op_batch (fun _ ->
                             let o =
                               workload.Workload.next rng ~phase:!phase
                             in
                             incr phase;
                             o)
                       in
                       let started = Sim.now () in
                       (match inst.exec_batch with
                        | Some f -> ignore (batch_in_op_span f ops)
                        | None ->
                          Array.iter
                            (fun (op, args) ->
                              ignore (exec_in_op_span inst ~op ~args))
                            ops);
                       (* a batch only counts when it ran entirely inside
                          the window — undercounting the two edge batches
                          beats crediting up to op_batch warmup ops *)
                       if started > measure_start && Sim.now () <= deadline
                       then counts.(w) <- counts.(w) + op_batch
                     done);
                  incr done_count))
         done;
         (* supervisor: tear down once every worker has drained *)
         while !done_count < workers do
           Sim.tick 50_000
         done;
         Array.iter (fun inst -> inst.teardown ()) insts;
         (* sample at the same point the old code read its counters, so
            values stay bit-identical for a fixed seed; [sample] adds, so
            several instances sum instead of overwriting each other *)
         Array.iter (fun inst -> inst.sample acc) insts));
  (* The horizon is a safety net: a correct run always finishes by itself. *)
  (match Sim.run ~until:(1_000 * (duration_ns + warmup_ns)) sim () with
   | `Done -> ()
   | `Cut _ -> failwith ("Experiment.run: system wedged: " ^ system.sys_name));
  let ops = Array.fold_left ( + ) 0 counts in
  {
    system = system.sys_name;
    workload = workload.Workload.name;
    workers;
    ops;
    duration_ns;
    throughput = float_of_int ops *. 1e9 /. float_of_int duration_ns;
    telemetry = Telemetry.Registry.snapshot acc;
  }

(* ---- system constructors ---- *)

module Systems (Ds : Seqds.Ds_intf.S) = struct
  module P = Prep.Prep_uc.Make (Ds)
  module G = Prep.Gl_uc.Make (Ds)
  module C = Prep.Cx_puc.Make (Ds)
  module Sh = Prep.Sharded_uc.Make (Ds)

  let prep ?(log_size = 65536) ?(flush = Prep.Config.Wbinvd) ?(flit = false)
      ?(dist_rw = false) ?(log_mirror = false) ?(slot_bitmap = false)
      ?(detect = false) ?(lsm_ckpt = false) ?(lsm_fanout = 4)
      ?(lsm_compact = true) ?persist_policy ?name ~mode ~epsilon () =
    let name =
      match name with
      | Some n -> n
      | None ->
        let base =
          match mode with
          | Prep.Config.Volatile -> "PREP-V"
          | Prep.Config.Buffered -> "PREP-Buffered"
          | Prep.Config.Durable -> "PREP-Durable"
        in
        let tags =
          List.filter_map
            (fun (on, tag) -> if on then Some tag else None)
            [ (flit, "flit"); (dist_rw, "dist"); (log_mirror, "mir");
              (slot_bitmap, "bmp"); (detect, "det"); (lsm_ckpt, "lsm");
              (persist_policy <> None, "pol") ]
        in
        if tags = [] then base else base ^ "/" ^ String.concat "+" tags
    in
    {
      sys_name = name;
      duration_factor = 1;
      make =
        (fun mem roots ~workers ~prefill ->
          let cfg =
            Prep.Config.make ~mode ~log_size ~epsilon ~flush ~flit ~dist_rw
              ~log_mirror ~slot_bitmap ~detect ~lsm_ckpt ~lsm_fanout
              ~lsm_compact ?persist_policy ~workers ()
          in
          let uc = P.create ~prefill mem roots cfg in
          P.start_persistence uc;
          {
            register = (fun () -> P.register_worker uc);
            exec = (fun ~op ~args -> P.execute uc ~op ~args);
            exec_batch = None;
            teardown = (fun () -> P.stop uc);
            sample = (fun reg -> P.sample uc reg);
          });
    }

  (* Hash-routed shards, durable-only. [sample] adds per-shard
     [shard<i>/...] keys alongside the summed classic counters, so a
     telemetry registry shows both the total and the balance. *)
  let prep_sharded ?(log_size = 65536) ?(flush = Prep.Config.Wbinvd)
      ?(flit = false) ?(slot_bitmap = false) ?(lsm_ckpt = false)
      ?(lsm_fanout = 4) ?(lsm_compact = true) ?persist_policy ?name ~shards
      ~epsilon () =
    let name =
      match name with
      | Some n -> n
      | None ->
        Printf.sprintf "PREP-Durable/x%d%s" shards
          (if lsm_ckpt then "+lsm" else "")
    in
    {
      sys_name = name;
      duration_factor = 1;
      make =
        (fun mem roots ~workers ~prefill ->
          let cfg =
            Prep.Config.make ~mode:Prep.Config.Durable ~log_size ~epsilon
              ~flush ~flit ~slot_bitmap ~shards ~lsm_ckpt ~lsm_fanout
              ~lsm_compact ?persist_policy ~workers ()
          in
          let uc = Sh.create ~prefill mem roots cfg in
          Sh.start_persistence uc;
          {
            register = (fun () -> Sh.register_worker uc);
            exec = (fun ~op ~args -> Sh.execute uc ~op ~args);
            exec_batch = Some (fun ops -> Sh.execute_batch uc ops);
            teardown = (fun () -> Sh.stop uc);
            sample = (fun reg -> Sh.sample uc reg);
          });
    }

  let global_lock =
    {
      sys_name = "GL";
      duration_factor = 1;
      make =
        (fun mem _roots ~workers ~prefill ->
          ignore workers;
          let gl = G.create ~prefill mem in
          {
            register = (fun () -> G.register_worker gl);
            exec = (fun ~op ~args -> G.execute gl ~op ~args);
            exec_batch = None;
            teardown = ignore;
            sample = (fun _ -> ());
          });
    }

  let cx ?(queue_capacity = 1 lsl 18) () =
    {
      sys_name = "CX-PUC";
      duration_factor = 10;
      make =
        (fun mem roots ~workers ~prefill ->
          let cx = C.create ~prefill ~queue_capacity mem roots ~workers in
          {
            register = (fun () -> C.register_worker cx);
            exec = (fun ~op ~args -> C.execute cx ~op ~args);
            exec_batch = None;
            teardown = ignore;
            sample = (fun _ -> ());
          });
    }
end

(** SOFT hashtable as a system (hashmap op codes). *)
let soft ~nbuckets =
  {
    sys_name = Printf.sprintf "SOFT-%dB" nbuckets;
    duration_factor = 1;
    make =
      (fun mem _roots ~workers ~prefill ->
        ignore workers;
        let s = Prep.Soft_hash.create ~nbuckets mem in
        List.iter
          (fun (op, args) -> ignore (Prep.Soft_hash.execute s ~op ~args))
          prefill;
        {
          register = (fun () -> Prep.Soft_hash.register_worker s);
          exec = (fun ~op ~args -> Prep.Soft_hash.execute s ~op ~args);
            exec_batch = None;
          teardown = ignore;
          sample = (fun _ -> ());
        });
  }
