(* prep-cli: drive the PREP-UC reproduction from the command line.

   Subcommands:
     bench     run one figure (or all) of the paper's evaluation
     run       run a single throughput point with explicit parameters
     profile   run one point with telemetry and print the phase breakdown
     validate  check a bench-JSON or trace-JSON artifact against its schema
     crash     run a crash/recovery episode and print the loss accounting
     fuzz      crash-point fuzzing with durable-linearizability checking
     explore   bounded exhaustive schedule-and-crash exploration
     session   crash-restart-continue client sessions (exactly-once check)
     sweep     closed-loop threads x read-pct grid, bench-schema JSON
     serve-sim open-loop arrival-process points (offered load vs sojourn)
     ckptscale checkpoint cost vs dirty set, recovery vs object size

   The harness subcommands take [-j N] to fan independent simulations
   across N domains (Harness.Campaign); results are deterministic — byte
   identical at any -j.

   Examples:
     dune exec bin/prep_cli.exe -- bench --figure fig3
     dune exec bin/prep_cli.exe -- run --system prep-buffered --threads 8 \
       --epsilon 1024 --read-pct 90
     dune exec bin/prep_cli.exe -- run --system prep-durable --uc-shards 4 \
       --threads 12                      # hash-routed sharded construction
     dune exec bin/prep_cli.exe -- profile --system prep-durable --threads 4 \
       --trace trace.json               # open trace.json in ui.perfetto.dev
     dune exec bin/prep_cli.exe -- profile --system prep-durable \
       --uc-shards 4 --threads 8        # shard<i>/ counters, per-shard spans
     dune exec bin/prep_cli.exe -- validate --kind trace trace.json
     dune exec bin/prep_cli.exe -- crash --mode buffered --epsilon 128
     dune exec bin/prep_cli.exe -- fuzz --iters 200 --variant buffered -j 4
     dune exec bin/prep_cli.exe -- fuzz --variant durable --ds rbtree \
       --seed 57 --crash-op 81000        # replay one exact episode
     dune exec bin/prep_cli.exe -- fuzz --variant durable --shards 4 \
       --multi-pct 40 --cross-pct 100 -j 4   # cross-shard 2PC atomicity
     dune exec bin/prep_cli.exe -- explore --threads 2 --ops 2 --shards 8 -j 4
     dune exec bin/prep_cli.exe -- explore --variant durable --uc-shards 2 \
       --no-persistence --ops 1          # exhaustive cross-shard crashes
     dune exec bin/prep_cli.exe -- sweep --threads-list 2,8,16 \
       --read-pcts 50,90 -j 4 --json sweep.json
     dune exec bin/prep_cli.exe -- serve-sim --arrival bursty \
       --rates 5e5,1e6,2e6 --theta 0.99 --shed 64 --json curve.json
     dune exec bin/prep_cli.exe -- run --system prep-durable --lsm-ckpt \
       --ds rbtree --threads 8          # incremental checkpoint backend
     dune exec bin/prep_cli.exe -- ckptscale --sizes 10000,100000 \
       --json ckpt.json                 # O(dirty) + flat-recovery gates *)

open Cmdliner
open Harness

(* ---- bench ---- *)

let figure_arg =
  let doc = "Figure to regenerate: all, table1, fig1..fig6, flushstats." in
  Arg.(value & opt string "all" & info [ "figure"; "f" ] ~docv:"FIG" ~doc)

let full_arg =
  let doc = "Use paper-scale parameters (much slower)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let bench figure full =
  let scale = if full then Figures.full else Figures.quick in
  match figure with
  | "all" -> `Ok (Figures.all scale)
  | "table1" -> `Ok (Figures.table1 ())
  | "fig1" -> `Ok (Figures.fig1 scale)
  | "fig2" -> `Ok (Figures.fig2 scale)
  | "fig3" -> `Ok (Figures.fig3 scale)
  | "fig4" -> `Ok (Figures.fig4 scale)
  | "fig5" -> `Ok (Figures.fig5 scale)
  | "fig6" -> `Ok (Figures.fig6 scale)
  | "ablation" -> `Ok (Figures.ablation scale)
  | "flushstats" -> `Ok (Figures.flushstats scale)
  | other -> `Error (true, Printf.sprintf "unknown figure %S" other)

let bench_cmd =
  Cmd.v
    (Cmd.info "bench" ~doc:"Regenerate the paper's tables and figures")
    Term.(ret (const bench $ figure_arg $ full_arg))

(* ---- run ---- *)

let system_arg =
  let doc =
    "System: gl, prep-v, prep-buffered, prep-durable, cx, soft-1k, soft-10k."
  in
  Arg.(
    value
    & opt string "prep-buffered"
    & info [ "system"; "s" ] ~docv:"SYSTEM" ~doc)

let ds_arg =
  let doc = "Data structure: hashmap, rbtree, skiplist, queue, pqueue, stack." in
  Arg.(value & opt string "hashmap" & info [ "ds" ] ~docv:"DS" ~doc)

let threads_arg =
  Arg.(value & opt int 8 & info [ "threads"; "t" ] ~docv:"N" ~doc:"Worker threads.")

let epsilon_arg =
  Arg.(value & opt int 1024 & info [ "epsilon"; "e" ] ~docv:"EPS" ~doc:"Flush boundary step.")

let read_pct_arg =
  Arg.(value & opt int 90 & info [ "read-pct" ] ~docv:"PCT" ~doc:"Read-only percentage (maps only).")

let keys_arg =
  Arg.(value & opt int 4096 & info [ "keys" ] ~docv:"N" ~doc:"Key range (maps) or prefill size (pairs).")

let duration_arg =
  Arg.(value & opt int 2_000_000 & info [ "duration" ] ~docv:"NS" ~doc:"Measured simulated time, ns.")

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let log_size = 16384

module type SYSTEMS = sig
  val prep :
    ?log_size:int ->
    ?flush:Prep.Config.flush_strategy ->
    ?flit:bool ->
    ?dist_rw:bool ->
    ?log_mirror:bool ->
    ?slot_bitmap:bool ->
    ?detect:bool ->
    ?lsm_ckpt:bool ->
    ?lsm_fanout:int ->
    ?lsm_compact:bool ->
    ?persist_policy:Nvm.Persist.policy ->
    ?name:string ->
    mode:Prep.Config.mode ->
    epsilon:int ->
    unit ->
    Experiment.system

  val prep_sharded :
    ?log_size:int ->
    ?flush:Prep.Config.flush_strategy ->
    ?flit:bool ->
    ?slot_bitmap:bool ->
    ?lsm_ckpt:bool ->
    ?lsm_fanout:int ->
    ?lsm_compact:bool ->
    ?persist_policy:Nvm.Persist.policy ->
    ?name:string ->
    shards:int ->
    epsilon:int ->
    unit ->
    Experiment.system

  val global_lock : Experiment.system
  val cx : ?queue_capacity:int -> unit -> Experiment.system
end

let flit_arg =
  let doc =
    "Enable the FliT flush-elimination layer (PREP systems only): per-line \
     flush tracking plus batched single-fence log persistence."
  in
  Arg.(value & flag & info [ "flit" ] ~doc)

let dist_rw_arg =
  let doc =
    "Protect each replica with the distributed per-core reader-writer lock \
     (PREP systems only): readers touch only their own cache line."
  in
  Arg.(value & flag & info [ "dist-rw" ] ~doc)

let log_mirror_arg =
  let doc =
    "Shadow the durable log into a DRAM mirror and serve replica catch-up \
     reads from it (PREP-Durable only; recovery still reads NVM)."
  in
  Arg.(value & flag & info [ "log-mirror" ] ~doc)

let slot_bitmap_arg =
  let doc =
    "Maintain a per-replica slot-occupancy bitmap so the combiner scans \
     only occupied flat-combining slots (PREP systems only)."
  in
  Arg.(value & flag & info [ "slot-bitmap" ] ~doc)

let detect_arg =
  let doc =
    "Enable detectable execution (PREP-Durable only): per-thread persistent \
     announce/response records, so after a crash every client can resolve \
     whether its in-flight op took effect and re-submit exactly the lost \
     ones."
  in
  Arg.(value & flag & info [ "detect" ] ~doc)

let lsm_ckpt_arg =
  let doc =
    "Replace the whole-replica checkpoint with the incremental \
     log-structured backend (PREP-Buffered/Durable maps only): dirty keys \
     accumulate in a volatile memtable sealed into immutable sorted NVM \
     segments behind a fenced manifest; recovery mounts the manifest and \
     replays only the log suffix past the last seal."
  in
  Arg.(value & flag & info [ "lsm-ckpt" ] ~doc)

let lsm_fanout_arg =
  let doc =
    "With --lsm-ckpt: size-tiered compaction fanout — the background \
     fiber merges every run of $(docv) same-level segments into one \
     segment a level up."
  in
  Arg.(value & opt int 4 & info [ "lsm-fanout" ] ~docv:"K" ~doc)

let no_lsm_compact_arg =
  let doc = "With --lsm-ckpt: disable the background compaction fiber." in
  Arg.(value & flag & info [ "no-lsm-compact" ] ~doc)

let uc_shards_arg =
  let doc =
    "Run $(docv) hash-routed PREP-Durable shards behind the cross-shard \
     router (prep-durable maps only): each shard is an independent log + \
     replica set + combiner, single-key ops route by key hash. Telemetry \
     is reported per shard (shard<i>/ counters, per-shard phase spans and \
     persistence tracks)."
  in
  Arg.(value & opt int 1 & info [ "uc-shards" ] ~docv:"N" ~doc)

let persist_policy_arg =
  let doc =
    "Per-site persistency policy: a JSON file emitted by optimize-persist \
     or an inline spec like \
     'log.fence_payload=defer-to-next-fence,prep.init=elide'. Sites not \
     named stay at emit. PREP systems only."
  in
  Arg.(value
       & opt (some string) None
       & info [ "persist-policy" ] ~docv:"SPEC|FILE" ~doc)

let parse_policy = function
  | None -> Ok None
  | Some arg ->
    (match Nvm.Persist.load arg with
     | Ok p -> Ok (Some p)
     | Error e -> Error e)

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON file of the run (one track per fiber, \
     phase spans, crash/flush instants). Open it in ui.perfetto.dev."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Run independent simulations on $(docv) domains. Deterministic: the \
     output is byte-identical at any -j."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Map a --system name to an [Experiment.system] under a data structure's
   [SYSTEMS] instantiation; shared by run/profile/sweep/serve-sim. *)
let select_system ?(uc_shards = 1) ?(lsm_ckpt = false) ?(lsm_fanout = 4)
    ?(lsm_compact = true) ?persist_policy ~system ~epsilon ~flit ~dist_rw
    ~log_mirror ~slot_bitmap ~detect (module Sy : SYSTEMS) =
  if detect && system <> "prep-durable" then
    Error "--detect requires --system prep-durable"
  else if
    persist_policy <> None
    && not (List.mem system [ "prep-v"; "prep-buffered"; "prep-durable" ])
  then Error "--persist-policy requires a PREP system"
  else if
    lsm_ckpt && not (List.mem system [ "prep-buffered"; "prep-durable" ])
  then Error "--lsm-ckpt requires --system prep-buffered or prep-durable"
  else if lsm_fanout < 2 then Error "--lsm-fanout must be at least 2"
  else if uc_shards < 1 then Error "--uc-shards must be at least 1"
  else if uc_shards > 1 && system <> "prep-durable" then
    Error "--uc-shards requires --system prep-durable (sharding is durable-only)"
  else if uc_shards > 1 && detect then
    Error "--detect is not supported with --uc-shards"
  else if uc_shards > 1 && (dist_rw || log_mirror) then
    Error "--dist-rw/--log-mirror are not supported with --uc-shards"
  else if uc_shards > Prep.Sharded_uc.max_shards then
    Error
      (Printf.sprintf
         "--uc-shards is capped at %d (64-slot root directory, 8 slots per \
          shard)"
         Prep.Sharded_uc.max_shards)
  else if uc_shards > 1 then
    Ok
      (Sy.prep_sharded ~log_size ~flit ~slot_bitmap ~lsm_ckpt ~lsm_fanout
         ~lsm_compact ?persist_policy ~shards:uc_shards ~epsilon ())
  else
    match system with
    | "gl" -> Ok Sy.global_lock
    | "prep-v" -> Ok (Sy.prep ~log_size ~mode:Prep.Config.Volatile ~epsilon:1 ())
    | "prep-buffered" ->
      Ok
        (Sy.prep ~log_size ~flit ~dist_rw ~log_mirror ~slot_bitmap ~lsm_ckpt
           ~lsm_fanout ~lsm_compact ?persist_policy
           ~mode:Prep.Config.Buffered ~epsilon ())
    | "prep-durable" ->
      Ok
        (Sy.prep ~log_size ~flit ~dist_rw ~log_mirror ~slot_bitmap ~detect
           ~lsm_ckpt ~lsm_fanout ~lsm_compact ?persist_policy
           ~mode:Prep.Config.Durable ~epsilon ())
    | "cx" -> Ok (Sy.cx ())
    | "soft-1k" -> Ok (Experiment.soft ~nbuckets:1000)
    | "soft-10k" -> Ok (Experiment.soft ~nbuckets:10_000)
    | other -> Error (Printf.sprintf "unknown system %S" other)

let run_point ~profile system ds threads epsilon read_pct keys duration seed
    flit dist_rw log_mirror slot_bitmap detect lsm_ckpt lsm_fanout
    no_lsm_compact uc_shards persist_policy trace =
  match parse_policy persist_policy with
  | Error m -> `Error (true, m)
  | Ok persist_policy ->
  let workload_map, workload_pairs =
    ( (fun () -> Workload.map_workload ~read_pct ~key_range:keys ~prefill_n:(keys / 2)),
      fun pairs -> pairs ~prefill_n:(keys / 2) )
  in
  let fail msg = `Error (true, msg) in
  let go sys workload =
    (* profiling and tracing both need a live ambient registry; the plain
       [run] subcommand keeps the registry-free default path *)
    let tel =
      if profile || trace <> None then
        Some (Telemetry.Registry.create ~tracing:(trace <> None) ())
      else None
    in
    let r =
      Experiment.run ?telemetry:tel ~seed:(Int64.of_int seed)
        ~duration_ns:duration ~warmup_ns:(duration / 5) ~system:sys ~workload
        ~workers:threads ()
    in
    Printf.printf "%s | %s | %d threads: %.0f ops/sec (%d ops)\n"
      r.Experiment.system r.Experiment.workload r.Experiment.workers
      r.Experiment.throughput r.Experiment.ops;
    print_string (Profile.render_memory r.Experiment.telemetry);
    if profile then begin
      print_newline ();
      print_string (Profile.render r.Experiment.telemetry)
    end
    else begin
      let nonzero =
        List.filter (fun (_, v) -> v <> 0) (Experiment.counters r)
      in
      if nonzero <> [] then begin
        print_string "counters:";
        List.iter (fun (k, v) -> Printf.printf " %s=%d" k v) nonzero;
        print_newline ()
      end
    end;
    match (trace, tel) with
    | Some path, Some reg -> (
      match Telemetry.Trace_export.write reg path with
      | Ok () ->
        Printf.printf "trace: %d events written to %s (%d dropped)\n"
          (Telemetry.Registry.n_events reg)
          path
          (Telemetry.Registry.dropped_events reg);
        `Ok ()
      | Error errs ->
        `Error
          ( false,
            "trace failed self-validation:\n  " ^ String.concat "\n  " errs ))
    | _ -> `Ok ()
  in
  let prep_sys =
    select_system ~uc_shards ~lsm_ckpt ~lsm_fanout
      ~lsm_compact:(not no_lsm_compact) ?persist_policy ~system ~epsilon
      ~flit ~dist_rw ~log_mirror ~slot_bitmap ~detect
  in
  if lsm_ckpt && not (List.mem ds [ "hashmap"; "rbtree"; "skiplist" ]) then
    fail "--lsm-ckpt needs a map data structure (per-key dirty tracking)"
  else
  match ds with
  | "hashmap" ->
    let module Sy = Experiment.Systems (Seqds.Hashmap) in
    (match prep_sys (module Sy) with
     | Ok sys -> go sys (workload_map ())
     | Error m -> fail m)
  | "rbtree" ->
    let module Sy = Experiment.Systems (Seqds.Rbtree) in
    (match prep_sys (module Sy) with
     | Ok sys -> go sys (workload_map ())
     | Error m -> fail m)
  | "skiplist" ->
    let module Sy = Experiment.Systems (Seqds.Skiplist) in
    (match prep_sys (module Sy) with
     | Ok sys -> go sys (workload_map ())
     | Error m -> fail m)
  | ("queue" | "pqueue" | "stack") when uc_shards > 1 ->
    fail "--uc-shards needs a map data structure (ops route by key)"
  | "queue" ->
    let module Sy = Experiment.Systems (Seqds.Queue_ds) in
    (match prep_sys (module Sy) with
     | Ok sys -> go sys (workload_pairs Workload.queue_pairs)
     | Error m -> fail m)
  | "pqueue" ->
    let module Sy = Experiment.Systems (Seqds.Pqueue) in
    (match prep_sys (module Sy) with
     | Ok sys -> go sys (workload_pairs Workload.pqueue_pairs)
     | Error m -> fail m)
  | "stack" ->
    let module Sy = Experiment.Systems (Seqds.Stack_ds) in
    (match prep_sys (module Sy) with
     | Ok sys -> go sys (workload_pairs Workload.stack_pairs)
     | Error m -> fail m)
  | other -> fail (Printf.sprintf "unknown data structure %S" other)

let point_term ~profile =
  Term.(
    ret
      (const (run_point ~profile) $ system_arg $ ds_arg $ threads_arg
     $ epsilon_arg $ read_pct_arg $ keys_arg $ duration_arg $ seed_arg
     $ flit_arg $ dist_rw_arg $ log_mirror_arg $ slot_bitmap_arg $ detect_arg
     $ lsm_ckpt_arg $ lsm_fanout_arg $ no_lsm_compact_arg $ uc_shards_arg
     $ persist_policy_arg $ trace_arg))

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run a single throughput point")
    (point_term ~profile:false)

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a single throughput point with telemetry enabled and print \
          the simulated-time phase breakdown (combine/publish/persist/\
          catch-up spans, latency percentiles, per-primitive NVM counters)")
    (point_term ~profile:true)

(* ---- validate ---- *)

let validate_kind_arg =
  let doc =
    "Artifact kind: trace (Chrome trace-event JSON), bench, policy \
     (optimize-persist persistency-policy JSON), or report \
     (optimize-persist decision-report JSON)."
  in
  Arg.(
    required
    & opt (some string) None
    & info [ "kind"; "k" ] ~docv:"KIND" ~doc)

let validate_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"JSON artifact to validate.")

let validate kind file =
  let contents () =
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if kind = "report" then (
    (* the optimize-persist decision report: check the schema tag and
       the presence/shape of every section *)
    let module J = Telemetry.Json in
    match J.parse_result (contents ()) with
    | Error e ->
      Printf.printf "%s: %s\n" file e;
      `Error (false, "validation failed")
    | Ok v -> (
      let bad m =
        Printf.printf "%s: %s\n" file m;
        `Error (false, "validation failed")
      in
      match J.member "schema" v with
      | Some (J.Str "prep.persist-report/1") -> (
        match
          ( J.member "baseline" v, J.member "policy" v,
            J.member "admitted" v, J.member "decisions" v,
            J.member "measured" v )
        with
        | Some (J.Obj _), Some (J.Obj _), Some (J.Obj adm),
          Some (J.List ds), Some (J.List _) ->
          Printf.printf
            "%s: valid persist-report (%d weakenings, %d decisions)\n" file
            (List.length adm) (List.length ds);
          `Ok ()
        | _ -> bad "persist-report: missing or malformed section")
      | _ ->
        bad "persist-report: missing or wrong \"schema\" (want \
             \"prep.persist-report/1\")"))
  else if kind = "policy" then (
    match Nvm.Persist.of_json (contents ()) with
    | Ok p ->
      Printf.printf "%s: valid persist-policy (%s; %d weakenings)\n" file
        Nvm.Persist.schema
        (List.length (Nvm.Persist.weakenings p));
      `Ok ()
    | Error e ->
      Printf.printf "%s: %s\n" file e;
      `Error (false, "validation failed"))
  else
  let validator =
    match kind with
    | "trace" -> Ok Telemetry.Json.validate_trace
    | "bench" -> Ok Telemetry.Json.validate_bench
    | other -> Error (Printf.sprintf "unknown artifact kind %S" other)
  in
  match validator with
  | Error m -> `Error (true, m)
  | Ok validator -> (
    match Telemetry.Json.validate_string validator (contents ()) with
    | Ok () ->
      Printf.printf "%s: valid %s artifact (schema_version %d)\n" file kind
        Telemetry.Json.schema_version;
      `Ok ()
    | Error errs ->
      List.iter (fun e -> Printf.printf "%s: %s\n" file e) errs;
      `Error (false, "validation failed"))

let validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Validate a machine-readable artifact (bench result JSON or Chrome \
          trace JSON) against its schema; exits nonzero when malformed")
    Term.(ret (const validate $ validate_kind_arg $ validate_file_arg))

(* ---- crash ---- *)

let mode_arg =
  let doc = "PREP mode: buffered or durable." in
  Arg.(value & opt string "buffered" & info [ "mode"; "m" ] ~docv:"MODE" ~doc)

let crash_at_arg =
  Arg.(value & opt int 2_000_000 & info [ "crash-at" ] ~docv:"NS" ~doc:"Crash time, simulated ns.")

let crash mode epsilon threads crash_at seed =
  let module Uc = Prep.Prep_uc.Make (Seqds.Hashmap) in
  let module H = Seqds.Hashmap in
  let mode_v =
    match mode with
    | "buffered" -> Ok Prep.Config.Buffered
    | "durable" -> Ok Prep.Config.Durable
    | other -> Error (Printf.sprintf "unknown mode %S" other)
  in
  match mode_v with
  | Error m -> `Error (true, m)
  | Ok mode_v ->
    let topology = Sim.Topology.default in
    let beta = topology.Sim.Topology.cores_per_socket in
    let sim = Sim.create ~seed:(Int64.of_int seed) topology in
    let mem = Nvm.Memory.make ~sockets:topology.Sim.Topology.sockets ~bg_period:5000 () in
    let uc_ref = ref None in
    ignore
      (Sim.spawn sim ~socket:0 (fun () ->
           let roots = Nvm.Roots.make mem in
           let cfg =
             Prep.Config.make ~mode:mode_v ~log_size:16384 ~epsilon
               ~workers:threads ()
           in
           let uc = Uc.create mem roots cfg in
           uc_ref := Some uc;
           Uc.start_persistence uc;
           for w = 0 to threads - 1 do
             let socket, core = Sim.Topology.place topology w in
             Sim.spawn_here ~socket ~core (fun () ->
                 Uc.register_worker uc;
                 let rng = Sim.fiber_rng () in
                 while true do
                   let k = Sim.Rng.int rng 256 in
                   ignore (Uc.execute uc ~op:H.op_insert ~args:[| k; Sim.Rng.int rng 1000 |])
                 done)
           done));
    (match Sim.run ~until:crash_at sim () with
     | `Cut t -> Printf.printf "power failure at %d ns\n" t
     | `Done -> ());
    Nvm.Memory.crash mem;
    Nvm.Context.reset ();
    let uc = Option.get !uc_ref in
    let completed =
      List.length (Prep.Trace.completed_indexes (Uc.trace uc))
    in
    let sim2 = Sim.create ~seed:(Int64.of_int (seed + 1)) topology in
    ignore
      (Sim.spawn sim2 ~socket:0 (fun () ->
           let _, report = Uc.recover uc in
           Printf.printf
             "completed before crash: %d\nrecovered: %d ops\nlost completed: %d (bound epsilon+beta-1 = %d)\ncontiguous prefix: %b\nskipped completed (must be 0): %d\n"
             completed
             (List.length report.Prep.Prep_uc.applied)
             report.Prep.Prep_uc.lost_completed
             (epsilon + beta - 1)
             report.Prep.Prep_uc.contiguous_prefix
             report.Prep.Prep_uc.skipped_completed));
    (match Sim.run sim2 () with
     | `Done -> `Ok ()
     | `Cut _ -> `Error (false, "recovery did not finish"))

let crash_cmd =
  Cmd.v
    (Cmd.info "crash" ~doc:"Run a crash/recovery episode and print loss accounting")
    Term.(
      ret (const crash $ mode_arg $ epsilon_arg $ threads_arg $ crash_at_arg $ seed_arg))

(* ---- fuzz ---- *)

let iters_arg =
  Arg.(value & opt int 100 & info [ "iters"; "n" ] ~docv:"N" ~doc:"Fuzzing episodes.")

let variant_arg =
  let doc = "Variant under test: volatile, buffered or durable." in
  Arg.(value & opt string "buffered" & info [ "variant" ] ~docv:"VARIANT" ~doc)

let fault_arg =
  let doc =
    "Injected protocol fault: none, early-boundary, elide-ct-flush, \
     mirror-read-recovery, response-before-log-persist (requires --detect), \
     commit-before-prepare (requires sharding: the cross-shard commit \
     decision is flushed before any prepare is durably logged) or \
     manifest-before-seal (requires --lsm-ckpt: the checkpoint manifest is \
     published before the segment bodies it points at are fenced)."
  in
  Arg.(value & opt string "none" & info [ "fault" ] ~docv:"FAULT" ~doc)

let parse_fault = function
  | "none" -> Ok Prep.Config.No_fault
  | "early-boundary" -> Ok Prep.Config.Early_boundary_advance
  | "elide-ct-flush" -> Ok Prep.Config.Elide_ct_flush
  | "mirror-read-recovery" -> Ok Prep.Config.Mirror_read_on_recovery
  | "response-before-log-persist" -> Ok Prep.Config.Response_before_log_persist
  | "commit-before-prepare" -> Ok Prep.Config.Commit_before_prepare_persist
  | "manifest-before-seal" -> Ok Prep.Config.Manifest_before_segment_seal
  | other -> Error (Printf.sprintf "unknown fault %S" other)

let fuzz_threads_arg =
  Arg.(value & opt int 6 & info [ "threads"; "t" ] ~docv:"N" ~doc:"Worker threads (1-7).")

let fuzz_epsilon_arg =
  Arg.(value & opt int 16 & info [ "epsilon"; "e" ] ~docv:"EPS" ~doc:"Flush boundary step.")

let fuzz_log_size_arg =
  Arg.(value & opt int 256 & info [ "log-size" ] ~docv:"N" ~doc:"Shared log entries.")

let fuzz_ops_arg =
  Arg.(value & opt int 300 & info [ "ops" ] ~docv:"N" ~doc:"Operations per worker.")

let fuzz_seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed.")

let crash_op_arg =
  let doc = "Replay one episode crashing before the Nth memory operation." in
  Arg.(value & opt (some int) None & info [ "crash-op" ] ~docv:"N" ~doc)

let crash_time_arg =
  let doc = "Replay one episode crashing at the given simulated time (ns)." in
  Arg.(value & opt (some int) None & info [ "crash-at" ] ~docv:"NS" ~doc)

let no_crash_arg =
  let doc = "Replay one crash-free episode (quiescent-state check only)." in
  Arg.(value & flag & info [ "no-crash" ] ~doc)

let bg_period_arg =
  Arg.(value & opt int 2000 & info [ "bg-period" ] ~docv:"N"
         ~doc:"Mean memory ops between background cache write-backs.")

let fuzz_shards_arg =
  let doc =
    "Fuzz the sharded construction with $(docv) PREP-Durable shards and \
     cross-shard transactions in the mix (map structures only; implies \
     --variant durable)."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let multi_pct_arg =
  let doc = "With --shards: percent of ops that are multi-key transactions." in
  Arg.(value & opt int 25 & info [ "multi-pct" ] ~docv:"PCT" ~doc)

let cross_pct_arg =
  let doc =
    "With --shards: percent of multi-key transactions whose keys land on \
     different shards (the rest collapse to single-shard commits)."
  in
  Arg.(value & opt int 75 & info [ "cross-pct" ] ~docv:"PCT" ~doc)

(* Op mixes for the fuzz workloads. The map structures share op codes. *)
let map_gen rng =
  let k = Sim.Rng.int rng 64 in
  match Sim.Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> (Seqds.Hashmap.op_insert, [| k; Sim.Rng.int rng 1000 |])
  | 4 | 5 -> (Seqds.Hashmap.op_remove, [| k |])
  | 6 | 7 | 8 -> (Seqds.Hashmap.op_get, [| k |])
  | _ -> (Seqds.Hashmap.op_size, [||])

let pair_gen ~push ~pop rng =
  if Sim.Rng.int rng 2 = 0 then (push, [| Sim.Rng.int rng 1000 |])
  else (pop, [||])

let fuzz_ds ds =
  match ds with
  | "hashmap" -> Ok ((module Seqds.Hashmap : Seqds.Ds_intf.S), map_gen)
  | "rbtree" -> Ok ((module Seqds.Rbtree : Seqds.Ds_intf.S), map_gen)
  | "skiplist" -> Ok ((module Seqds.Skiplist : Seqds.Ds_intf.S), map_gen)
  | "queue" ->
    Ok
      ( (module Seqds.Queue_ds : Seqds.Ds_intf.S),
        pair_gen ~push:Seqds.Queue_ds.op_enqueue ~pop:Seqds.Queue_ds.op_dequeue )
  | "pqueue" ->
    Ok
      ( (module Seqds.Pqueue : Seqds.Ds_intf.S),
        pair_gen ~push:Seqds.Pqueue.op_enqueue ~pop:Seqds.Pqueue.op_dequeue )
  | "stack" ->
    Ok
      ( (module Seqds.Stack_ds : Seqds.Ds_intf.S),
        pair_gen ~push:Seqds.Stack_ds.op_push ~pop:Seqds.Stack_ds.op_pop )
  | other -> Error (Printf.sprintf "unknown data structure %S" other)

let parse_variant = function
  | "volatile" -> Ok Prep.Config.Volatile
  | "buffered" -> Ok Prep.Config.Buffered
  | "durable" -> Ok Prep.Config.Durable
  | other -> Error (Printf.sprintf "unknown variant %S" other)

let is_map ds = List.mem ds [ "hashmap"; "rbtree"; "skiplist" ]

let layer_flag_list =
  "--flit/--dist-rw/--log-mirror/--slot-bitmap/--detect/--lsm-ckpt"

let report_violations violations =
  if violations = [] then begin
    print_endline "no violations";
    `Ok ()
  end
  else begin
    List.iter
      (fun v ->
        Printf.printf "VIOLATION: %s\n"
          (Check.Durable_lin.violation_to_string v))
      violations;
    `Error (false, "durable-linearizability violations found")
  end

(* Sharded fuzzing drives [Prep.Sharded_uc], so the workload must be a map
   (single-key ops route on their key) and the mode is necessarily
   Durable; the per-shard protocol layers (flit, dist-rw, ...) are not
   plumbed through the router. *)
let fuzz iters variant ds threads epsilon log_size ops seed fault crash_op
    crash_time no_crash bg_period flit dist_rw log_mirror slot_bitmap detect
    lsm_ckpt nshards multi_pct cross_pct persist_policy jobs =
  let sharded = nshards > 1 in
  let layered =
    flit || dist_rw || log_mirror || slot_bitmap || detect || lsm_ckpt
  in
  if sharded && persist_policy <> None then
    `Error (true, "--persist-policy is not supported with --shards")
  else if sharded && variant <> "durable" then
    `Error (true, "--shards requires --variant durable (sharding is durable-only)")
  else if sharded && layered then
    `Error (true, layer_flag_list ^ " are not supported with --shards")
  else if nshards < 1 then `Error (true, "--shards must be at least 1")
  else
  match
    (parse_policy persist_policy, parse_variant variant, parse_fault fault,
     fuzz_ds ds)
  with
  | Error m, _, _, _ | _, Error m, _, _ | _, _, Error m, _ | _, _, _, Error m ->
    `Error (true, m)
  | Ok persist_policy, Ok mode, Ok fault, Ok ((module Ds), flat_gen) ->
    if sharded && not (is_map ds) then
      `Error (true, "--shards needs a map data structure (ops route by key)")
    else if
      sharded
      && (multi_pct < 0 || multi_pct > 100 || cross_pct < 0 || cross_pct > 100)
    then `Error (true, "--multi-pct/--cross-pct must be in 0..100")
    else if threads < 1 || threads > Check.Fuzz.max_threads then
      `Error
        ( true,
          Printf.sprintf "--threads must be between 1 and %d (got %d)"
            Check.Fuzz.max_threads threads )
    else if
      mode = Prep.Config.Volatile && (crash_op <> None || crash_time <> None)
    then
      `Error (true, "volatile episodes cannot crash: drop the crash flag")
    else if detect && mode <> Prep.Config.Durable then
      `Error (true, "--detect requires --variant durable")
    else if fault = Prep.Config.Response_before_log_persist && not detect then
      `Error (true, "--fault response-before-log-persist requires --detect")
    else if lsm_ckpt && mode = Prep.Config.Volatile then
      `Error (true, "--lsm-ckpt requires --variant buffered or durable")
    else if lsm_ckpt && not (is_map ds) then
      `Error
        (true, "--lsm-ckpt needs a map data structure (per-key dirty tracking)")
    else if fault = Prep.Config.Manifest_before_segment_seal && not lsm_ckpt
    then `Error (true, "--fault manifest-before-seal requires --lsm-ckpt")
    else
    let cfg =
      Prep.Config.make ~mode ~log_size ~epsilon ~flit ~dist_rw ~log_mirror
        ~slot_bitmap ~detect ~lsm_ckpt ?persist_policy ~shards:nshards ~fault
        ~workers:threads ()
    in
    let module F = Check.Fuzz.Make ((val Check.Sut.of_config (module Ds) cfg))
    in
    let gen_op, mix =
      if sharded then
        let w =
          Workload.map_workload_sharded ~read_pct:20 ~multi_pct ~cross_pct
            ~nshards ~key_range:128 ~prefill_n:0
        in
        ((fun rng -> w.Workload.next rng ~phase:0), Some (multi_pct, cross_pct))
      else (flat_gen, None)
    in
    let template =
      {
        Check.Fuzz.workload_seed = seed;
        threads;
        ops_per_worker = ops;
        bg_period;
        preempt_prob = 0.02;
        crash = Check.Fuzz.No_crash;
      }
    in
    let replay =
      match (crash_op, crash_time, no_crash) with
      | Some n, _, _ -> Some (Check.Fuzz.At_op n)
      | None, Some ns, _ -> Some (Check.Fuzz.At_time ns)
      | None, None, true -> Some Check.Fuzz.No_crash
      | None, None, false -> None
    in
    (match replay with
     | Some crash ->
       (* replay a single, fully specified episode (shrunk repro) *)
       let ep = { template with crash } in
       let out = F.run_episode cfg ~gen_op ep in
       Printf.printf
         "episode %s: crashed=%b logged=%d completed=%d applied=%d\n"
         (Fmt.str "%a" (Check.Fuzz.pp_episode cfg) ep)
         out.Check.Fuzz.crashed out.Check.Fuzz.logged out.Check.Fuzz.completed
         out.Check.Fuzz.applied;
       report_violations out.Check.Fuzz.violations
     | None ->
       let res =
         F.fuzz cfg ~gen_op ~template ~iters ~log:print_endline
           ~runner:(Campaign.run ~j:jobs) ()
       in
       Printf.printf "%d episodes (%d crashed), %d failing\n"
         res.Check.Fuzz.episodes res.Check.Fuzz.crashes
         (List.length res.Check.Fuzz.failures);
       (match res.Check.Fuzz.failures with
        | [] -> `Ok ()
        | first :: _ ->
          print_endline "shrinking first failure...";
          let small = F.shrink cfg ~gen_op first.Check.Fuzz.episode in
          Printf.printf "shrunk to: %s\nreplay with:\n  %s\n"
            (Fmt.str "%a" (Check.Fuzz.pp_episode cfg) small)
            (Check.Repro.fuzz ~ds ?mix cfg small);
          `Error (false, "durable-linearizability violations found")))

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Crash-point fuzzing: random crash injection, durable-linearizability \
          checking, counterexample shrinking")
    Term.(
      ret
        (const fuzz $ iters_arg $ variant_arg $ ds_arg $ fuzz_threads_arg
       $ fuzz_epsilon_arg $ fuzz_log_size_arg $ fuzz_ops_arg $ fuzz_seed_arg
       $ fault_arg $ crash_op_arg $ crash_time_arg $ no_crash_arg
       $ bg_period_arg $ flit_arg $ dist_rw_arg $ log_mirror_arg
       $ slot_bitmap_arg $ detect_arg $ lsm_ckpt_arg $ fuzz_shards_arg
       $ multi_pct_arg $ cross_pct_arg $ persist_policy_arg $ jobs_arg))

(* ---- explore ---- *)

let exp_threads_arg =
  Arg.(value & opt int 2 & info [ "threads"; "t" ] ~docv:"N"
         ~doc:"Worker threads (small scope: 2-3).")

let exp_ops_arg =
  Arg.(value & opt int 3 & info [ "ops" ] ~docv:"N" ~doc:"Operations per worker.")

let exp_epsilon_arg =
  Arg.(value & opt int 2 & info [ "epsilon"; "e" ] ~docv:"EPS" ~doc:"Flush boundary step.")

let exp_log_size_arg =
  Arg.(value & opt int 16 & info [ "log-size" ] ~docv:"N" ~doc:"Shared log entries.")

let exp_seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let exp_sockets_arg =
  Arg.(value & opt int 2 & info [ "sockets" ] ~docv:"N" ~doc:"NUMA sockets.")

let exp_cores_arg =
  Arg.(value & opt int 2 & info [ "cores" ] ~docv:"N" ~doc:"Cores per socket (= beta).")

let max_schedules_arg =
  Arg.(value & opt int Check.Explore.default_budget.Check.Explore.max_schedules
       & info [ "max-schedules" ] ~docv:"N" ~doc:"Schedule budget.")

let max_states_arg =
  Arg.(value & opt int Check.Explore.default_budget.Check.Explore.max_states
       & info [ "max-states" ] ~docv:"N" ~doc:"Distinct-state budget.")

let max_steps_arg =
  Arg.(value & opt int Check.Explore.default_budget.Check.Explore.max_steps
       & info [ "max-steps" ] ~docv:"N" ~doc:"Scheduler steps per schedule (depth).")

let frontier_lines_arg =
  Arg.(value
       & opt int Check.Explore.default_budget.Check.Explore.max_frontier_lines
       & info [ "frontier-lines" ] ~docv:"K"
           ~doc:"Dirty-line cap per crash point (2^K subsets).")

let no_prune_arg =
  let doc =
    "Disable sleep-set and state-hash pruning (naive enumeration, for \
     measuring the reduction factor)."
  in
  Arg.(value & flag & info [ "no-prune" ] ~doc)

let shards_arg =
  let doc =
    "Split the oracle work (crash recoveries, terminal model-replays) into \
     $(docv) independent shards run as a campaign; the merged result is \
     audited against the replicated schedule DFS. Keep $(docv) fixed while \
     varying -j: the merge is a function of the shard set, not of how many \
     domains ran it."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K" ~doc)

let replay_arg =
  let doc =
    "Replay a single schedule from a run-length-encoded decision trace \
     (e.g. '3*12,5,4*7') instead of exploring."
  in
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"TRACE" ~doc)

let crash_step_arg =
  let doc = "With --replay: crash at the given runtime scheduler step." in
  Arg.(value & opt (some int) None & info [ "crash-step" ] ~docv:"N" ~doc)

let frontier_arg =
  let doc =
    "With --crash-step: frontier mask — bit $(i) commits the $(i)-th dirty \
     NVM line (sorted) to media before the crash."
  in
  Arg.(value & opt int 0 & info [ "frontier" ] ~docv:"MASK" ~doc)

let no_persistence_arg =
  let doc =
    "Exclude the checkpoint (persistence) fibers from the explored schedule \
     space. Sound when the scope's total op count stays below --epsilon and \
     the log cannot wrap: combiners never reach a flush boundary, and \
     recovery replays the whole log over the empty checkpoint. Required in \
     practice for --uc-shards, whose per-shard checkpoint fibers never \
     quiesce and make the space unbounded."
  in
  Arg.(value & flag & info [ "no-persistence" ] ~doc)

let report_explore_result ~repro_command res =
  let s = res.Check.Explore.stats in
  Printf.printf
    "schedules %d (terminals %d)  steps %d  states %d  dedup-hits %d  \
     sleep-skips %d\n\
     crash points %d  frontiers %d  recoveries %d  truncations %d  \
     depth cutoffs %d  stutter cuts %d\n\
     max completed-op loss %d  distinct terminal states %d  exhausted %b\n"
    s.Check.Explore.schedules s.Check.Explore.terminals s.Check.Explore.steps
    s.Check.Explore.states s.Check.Explore.dedup_hits
    s.Check.Explore.sleep_skips s.Check.Explore.crash_points
    s.Check.Explore.frontiers s.Check.Explore.recoveries
    s.Check.Explore.frontier_truncations s.Check.Explore.depth_cutoffs
    s.Check.Explore.stutter_cuts s.Check.Explore.max_completed_loss
    (List.length res.Check.Explore.terminal_states)
    res.Check.Explore.exhausted;
  match res.Check.Explore.violation with
  | None ->
    print_endline "no violations";
    `Ok ()
  | Some v ->
    List.iter
      (fun vi ->
        Printf.printf "VIOLATION: %s\n"
          (Check.Durable_lin.violation_to_string vi))
      v.Check.Explore.v_violations;
    Printf.printf "logged=%d completed=%d applied=%d\n"
      v.Check.Explore.v_logged v.Check.Explore.v_completed
      v.Check.Explore.v_applied;
    Printf.printf "decision trace: %s\n"
      (Check.Explore.decisions_to_string v.Check.Explore.v_decisions);
    (match v.Check.Explore.v_crash with
     | Some (step, mask) ->
       Printf.printf "crash: step %d, frontier mask %d\n" step mask
     | None -> print_endline "crash: none (terminal-state violation)");
    Printf.printf "replay with:\n  %s\n"
      (repro_command v.Check.Explore.v_decisions v.Check.Explore.v_crash);
    `Error (false, "durable-linearizability violations found")

(* Op mix for sharded exploration: single-key inserts/gets plus cross-shard
   multi-puts and transfers over a small key range, so the 2PC paths are in
   the explored space. The map structures share op codes. *)
let sharded_explore_gen rng =
  let k = Sim.Rng.int rng 8 in
  match Sim.Rng.int rng 4 with
  | 0 -> (Prep.Sharded_uc.op_multi_put, [| k; k + 1; 1 + Sim.Rng.int rng 9 |])
  | 1 -> (Seqds.Hashmap.op_insert, [| k; Sim.Rng.int rng 100 |])
  | 2 -> (Seqds.Hashmap.op_get, [| k |])
  | _ -> (Prep.Sharded_uc.op_transfer, [| k; k + 3; 1 |])

let explore variant ds threads ops epsilon log_size seed sockets cores fault
    flit dist_rw log_mirror slot_bitmap detect lsm_ckpt lsm_fanout
    max_schedules max_states max_steps frontier_lines no_prune no_persistence
    shards uc_shards persist_policy jobs replay crash_step frontier =
  match parse_policy persist_policy with
  | Error m -> `Error (true, m)
  | Ok persist_policy ->
  match (parse_variant variant, parse_fault fault, fuzz_ds ds) with
  | Error m, _, _ | _, Error m, _ | _, _, Error m -> `Error (true, m)
  | _, _, _ when detect && variant <> "durable" ->
    `Error (true, "--detect requires --variant durable")
  | _, Ok f, _ when f = Prep.Config.Response_before_log_persist && not detect
    ->
    `Error (true, "--fault response-before-log-persist requires --detect")
  | _, Ok f, _
    when f = Prep.Config.Manifest_before_segment_seal && not lsm_ckpt ->
    `Error (true, "--fault manifest-before-seal requires --lsm-ckpt")
  | _, _, _ when lsm_ckpt && variant = "volatile" ->
    `Error (true, "--lsm-ckpt requires --variant buffered or durable")
  | _, _, _ when lsm_ckpt && not (is_map ds) ->
    `Error
      (true, "--lsm-ckpt needs a map data structure (per-key dirty tracking)")
  | _, _, _ when lsm_fanout < 2 ->
    `Error (true, "--lsm-fanout must be at least 2")
  | Ok mode, Ok fault_v, Ok ((module Ds), flat_gen) ->
    let scope =
      {
        Check.Explore.seed;
        threads;
        ops_per_worker = ops;
        sockets;
        cores_per_socket = cores;
        prune = not no_prune;
        persistence = not no_persistence;
      }
    in
    let budget =
      {
        Check.Explore.max_schedules;
        max_states;
        max_steps;
        max_frontier_lines = frontier_lines;
      }
    in
    let sharded = uc_shards > 1 in
    let layered =
      flit || dist_rw || log_mirror || slot_bitmap || detect || lsm_ckpt
    in
    if sharded && persist_policy <> None then
      `Error (true, "--persist-policy is not supported with --uc-shards")
    else if sharded && variant <> "durable" then
      `Error
        (true, "--uc-shards requires --variant durable (sharding is durable-only)")
    else if sharded && layered then
      `Error (true, layer_flag_list ^ " are not supported with --uc-shards")
    else if sharded && not (is_map ds) then
      `Error (true, "--uc-shards needs a map data structure (ops route by key)")
    else if uc_shards < 1 then `Error (true, "--uc-shards must be at least 1")
    else if threads < 1 || threads > Check.Explore.max_threads scope then
      `Error
        ( true,
          Printf.sprintf "--threads must be between 1 and %d (got %d)"
            (Check.Explore.max_threads scope) threads )
    else if shards < 1 then `Error (true, "--shards must be at least 1")
    else begin
      let cfg =
        Prep.Config.make ~mode ~log_size ~epsilon ~flit ~dist_rw ~log_mirror
          ~slot_bitmap ~detect ~lsm_ckpt ~lsm_fanout ?persist_policy
          ~shards:uc_shards ~fault:fault_v ~workers:threads ()
      in
      let module E =
        Check.Explore.Make ((val Check.Sut.of_config (module Ds) cfg))
      in
      let gen_op = if sharded then sharded_explore_gen else flat_gen in
      match replay with
      | Some trace_str ->
        let decisions = Check.Explore.decisions_of_string trace_str in
        let crash = Option.map (fun s -> (s, frontier)) crash_step in
        let violations, crashed, logged, completed, applied =
          E.replay cfg ~gen_op ~scope ~decisions ?crash ()
        in
        Printf.printf "replay: crashed=%b logged=%d completed=%d applied=%d\n"
          crashed logged completed applied;
        report_violations violations
      | None ->
        let res =
          if shards = 1 then E.explore ~budget cfg ~gen_op ~scope ()
          else
            Check.Explore.merge_shards
              (Campaign.run ~j:jobs
                 (Array.init shards (fun i () ->
                      E.explore ~budget ~shard:(i, shards) cfg ~gen_op ~scope
                        ())))
        in
        report_explore_result ~repro_command:(Check.Repro.explore ~ds cfg scope)
          res
    end

let explore_cmd =
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Bounded exhaustive schedule-and-crash exploration: every \
          interleaving of a small-scope workload, every reachable crash \
          frontier, DPOR-style pruning, replayable decision traces")
    Term.(
      ret
        (const explore $ variant_arg $ ds_arg $ exp_threads_arg $ exp_ops_arg
       $ exp_epsilon_arg $ exp_log_size_arg $ exp_seed_arg $ exp_sockets_arg
       $ exp_cores_arg $ fault_arg $ flit_arg $ dist_rw_arg $ log_mirror_arg
       $ slot_bitmap_arg $ detect_arg $ lsm_ckpt_arg $ lsm_fanout_arg
       $ max_schedules_arg $ max_states_arg $ max_steps_arg
       $ frontier_lines_arg $ no_prune_arg $ no_persistence_arg $ shards_arg
       $ uc_shards_arg $ persist_policy_arg $ jobs_arg $ replay_arg
       $ crash_step_arg $ frontier_arg))

(* ---- optimize-persist ---- *)

let op_out_arg =
  Arg.(value
       & opt string "persist-policy.json"
       & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Write the proven policy JSON here (--persist-policy input).")

let op_report_arg =
  Arg.(value
       & opt (some string) None
       & info [ "report" ] ~docv:"FILE"
           ~doc:"Also write the full decision report JSON (admitted and \
                 rejected candidates, measurements, repro commands).")

let op_fuzz_threads_arg =
  Arg.(value & opt int 4
       & info [ "fuzz-threads" ] ~docv:"N"
           ~doc:"Worker threads in the measurement run and fuzz soak.")

let op_fuzz_ops_arg =
  Arg.(value & opt int 150
       & info [ "fuzz-ops" ] ~docv:"N"
           ~doc:"Ops per worker in the measurement run and fuzz soak.")

let op_fuzz_iters_arg =
  Arg.(value & opt int 30
       & info [ "fuzz-iters" ] ~docv:"N"
           ~doc:"Crash episodes in the per-candidate differential fuzz soak.")

let optimize_persist variant ds threads ops epsilon log_size seed sockets
    cores flit dist_rw log_mirror slot_bitmap detect lsm_ckpt max_schedules
    max_states max_steps frontier_lines no_persistence fuzz_threads fuzz_ops
    fuzz_iters bg_period out report_file =
  let variant_v =
    match variant with
    | "volatile" ->
      Error "optimize-persist needs a persistent variant (buffered/durable)"
    | v -> parse_variant v
  in
  match (variant_v, fuzz_ds ds) with
  | Error m, _ | _, Error m -> `Error (true, m)
  | Ok mode, Ok ((module Ds), gen_op) ->
    if detect && mode <> Prep.Config.Durable then
      `Error (true, "--detect requires --variant durable")
    else if lsm_ckpt && not (is_map ds) then
      `Error
        (true, "--lsm-ckpt needs a map data structure (per-key dirty tracking)")
    else begin
      let module PI = Check.Persist_infer.Make (Ds) in
      let cfg =
        Prep.Config.make ~mode ~log_size ~epsilon ~flit ~dist_rw ~log_mirror
          ~slot_bitmap ~detect ~lsm_ckpt ~workers:threads ()
      in
      let scope =
        {
          Check.Explore.seed;
          threads;
          ops_per_worker = ops;
          sockets;
          cores_per_socket = cores;
          prune = true;
          persistence = not no_persistence;
        }
      in
      let budget =
        {
          Check.Explore.max_schedules;
          max_states;
          max_steps;
          max_frontier_lines = frontier_lines;
        }
      in
      let template =
        {
          Check.Fuzz.workload_seed = seed;
          threads = fuzz_threads;
          ops_per_worker = fuzz_ops;
          bg_period;
          preempt_prob = 0.02;
          crash = Check.Fuzz.No_crash;
        }
      in
      let report =
        PI.infer ~log:print_endline cfg ~gen_op ~scope ~budget ~template
          ~fuzz_epsilon:16 ~fuzz_log_size:256 ~fuzz_iters ~ds ()
      in
      let write path contents =
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc contents)
      in
      write out (Nvm.Persist.to_json report.Check.Persist_infer.r_policy);
      Printf.printf "policy written to %s\n" out;
      (match report_file with
       | Some f ->
         write f (Check.Persist_infer.report_to_json report);
         Printf.printf "report written to %s\n" f
       | None -> ());
      let admitted =
        Nvm.Persist.weakenings report.Check.Persist_infer.r_policy
      in
      Printf.printf
        "admitted %d weakenings (explorer exhausted %b); flushes %d -> %d, \
         fences %d -> %d\n"
        (List.length admitted) report.Check.Persist_infer.r_exhausted
        report.Check.Persist_infer.r_baseline_flushes
        report.Check.Persist_infer.r_policy_flushes
        report.Check.Persist_infer.r_baseline_fences
        report.Check.Persist_infer.r_policy_fences;
      `Ok ()
    end

let optimize_persist_cmd =
  Cmd.v
    (Cmd.info "optimize-persist"
       ~doc:
         "Infer a minimal per-site persistency policy: measure which \
          flush/fence sites are hot, greedily propose one-site weakenings \
          (elide, downgrade, defer) hottest-first, and admit each only if \
          the bounded-exhaustive explorer exhausts its scope with zero \
          violations AND a differential crash-fuzz soak stays clean. Emits \
          the proven policy as JSON for --persist-policy; rejected \
          candidates are recorded with replayable repro commands")
    Term.(
      ret
        (const optimize_persist $ variant_arg $ ds_arg $ exp_threads_arg
       $ exp_ops_arg $ exp_epsilon_arg $ exp_log_size_arg $ exp_seed_arg
       $ exp_sockets_arg $ exp_cores_arg $ flit_arg $ dist_rw_arg
       $ log_mirror_arg $ slot_bitmap_arg $ detect_arg $ lsm_ckpt_arg
       $ max_schedules_arg $ max_states_arg $ max_steps_arg
       $ frontier_lines_arg $ no_persistence_arg $ op_fuzz_threads_arg
       $ op_fuzz_ops_arg $ op_fuzz_iters_arg $ bg_period_arg $ op_out_arg
       $ op_report_arg))

(* ---- session ---- *)

let session_threads_arg =
  Arg.(value & opt int 4 & info [ "threads"; "t" ] ~docv:"N"
         ~doc:"Client threads (1-7).")

let session_ops_arg =
  Arg.(value & opt int 40 & info [ "ops" ] ~docv:"N"
         ~doc:"Scripted update operations per client.")

let session_epsilon_arg =
  Arg.(value & opt int 8 & info [ "epsilon"; "e" ] ~docv:"EPS"
         ~doc:"Flush boundary step.")

let session_log_size_arg =
  Arg.(value & opt int 1024 & info [ "log-size" ] ~docv:"N"
         ~doc:"Shared log entries.")

let session_crashes_arg =
  Arg.(value & opt int 3 & info [ "crashes" ] ~docv:"N"
         ~doc:"Power failures to inject per session.")

let session_seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed.")

let sessions_arg =
  Arg.(value & opt int 1 & info [ "sessions" ] ~docv:"N"
         ~doc:"Independent sessions on consecutive seeds.")

let session_json_arg =
  let doc = "Write a bench-schema JSON artifact of the campaign to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let write_bench_json path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  match Telemetry.Json.(validate_string validate_bench contents) with
  | Ok () ->
    Printf.printf "artifact: %s\n" path;
    Ok ()
  | Error errs ->
    List.iter (fun e -> Printf.eprintf "%s: %s\n" path e) errs;
    Error
      (Printf.sprintf "%s does not validate against the bench schema" path)

let json_of_outcome ~ds ~threads (o : Session.outcome) =
  let counters =
    [ ("seed", 0); ("epochs", List.length o.Session.epochs);
      ("crashes", o.Session.crashes_injected);
      ("submitted", o.Session.submitted);
      ("resubmitted", o.Session.resubmitted);
      ("completed", o.Session.completed); ("lost", o.Session.lost);
      ("duplicated", o.Session.duplicated);
      ("violations", List.length o.Session.violations) ]
  in
  Telemetry.Json.bench_record ~system:"PREP-Durable/det"
    ~workload:("session " ^ ds) ~workers:threads ~ops:o.Session.history_len
    ~duration_ns:o.Session.duration_ns
    ~throughput:
      (float_of_int o.Session.history_len
      *. 1e9
      /. float_of_int o.Session.duration_ns)
    ~counters o.Session.mem_counters

let session ds threads ops epsilon log_size crashes seed sessions bg_period
    detect jobs json =
  match fuzz_ds ds with
  | Error m -> `Error (true, m)
  | Ok ((module Ds), gen_op) ->
    let module S = Session.Make (Ds) in
    if threads < 1 || threads > S.max_threads then
      `Error
        ( true,
          Printf.sprintf "--threads must be between 1 and %d (got %d)"
            S.max_threads threads )
    else begin
      let cfg =
        {
          Session.default_config with
          Session.seed;
          threads;
          ops_per_client = ops;
          epsilon;
          log_size;
          crashes;
          detect;
          bg_period;
        }
      in
      let outcomes = S.campaign ~j:jobs cfg ~gen_op ~sessions in
      List.iteri
        (fun i (o : Session.outcome) ->
          Printf.printf "session %d (seed %d):\n" i (seed + i);
          List.iter
            (fun (e : Session.epoch_info) ->
              Printf.printf
                "  epoch %d: %s, %d re-submitted\n" e.Session.epoch
                (if e.Session.crashed then "crashed" else "quiescent")
                e.Session.resubmitted)
            o.Session.epochs;
          Printf.printf
            "  submitted %d  applied %d  completed %d/%d  lost %d  \
             duplicated %d  violations %d\n"
            o.Session.submitted o.Session.history_len o.Session.completed
            (threads * ops) o.Session.lost o.Session.duplicated
            (List.length o.Session.violations);
          List.iter
            (fun v ->
              Printf.printf "  VIOLATION: %s\n"
                (Check.Durable_lin.violation_to_string v))
            o.Session.violations)
        outcomes;
      let total f = List.fold_left (fun a o -> a + f o) 0 outcomes in
      let crashes_tot = total (fun o -> o.Session.crashes_injected) in
      let resub = total (fun o -> o.Session.resubmitted) in
      let lost = total (fun o -> o.Session.lost) in
      let dup = total (fun o -> o.Session.duplicated) in
      let viol = total (fun o -> List.length o.Session.violations) in
      (match json with
       | None -> ()
       | Some path ->
         let contents =
           Printf.sprintf
             "{\n  \"schema_version\": %d,\n\
             \  \"config\": {\"ds\": %S, \"threads\": %d, \"ops\": %d, \
              \"epsilon\": %d, \"log_size\": %d, \"crashes\": %d, \"seed\": \
              %d, \"detect\": %b},\n\
             \  \"sessions\": [\n    %s\n  ]\n}\n"
             Telemetry.Json.schema_version ds threads ops epsilon log_size
             crashes seed detect
             (String.concat ",\n    "
                (List.map (json_of_outcome ~ds ~threads) outcomes));
         in
         match write_bench_json path contents with
         | Ok () -> ()
         | Error m ->
           Printf.eprintf "session FAILED: %s\n" m;
           exit 1);
      if detect then
        if lost = 0 && dup = 0 && viol = 0 then begin
          Printf.printf
            "exactly-once: PASS (%d clients, %d crashes, %d resubmitted, 0 \
             lost, 0 duplicated)\n"
            (threads * sessions) crashes_tot resub;
          `Ok ()
        end
        else begin
          Printf.printf
            "exactly-once: FAIL (%d lost, %d duplicated, %d violations)\n"
            lost dup viol;
          `Error (false, "exactly-once contract violated")
        end
      else if dup = 0 && viol = 0 then begin
        Printf.printf
          "baseline (no --detect): %d crashes, %d lost, 0 duplicated — \
           losses are the gap --detect closes\n"
          crashes_tot lost;
        `Ok ()
      end
      else begin
        Printf.printf
          "baseline (no --detect): FAIL (%d duplicated, %d violations)\n" dup
          viol;
        `Error (false, "durable-linearizability violations found")
      end
    end

let session_cmd =
  Cmd.v
    (Cmd.info "session"
       ~doc:
         "Crash-restart-continue sessions: scripted clients survive injected \
          power failures, resume via resolve under --detect, and the \
          cumulative history is checked for exactly-once application")
    Term.(
      ret
        (const session $ ds_arg $ session_threads_arg $ session_ops_arg
       $ session_epsilon_arg $ session_log_size_arg $ session_crashes_arg
       $ session_seed_arg $ sessions_arg $ bg_period_arg $ detect_arg
       $ jobs_arg $ session_json_arg))

(* ---- sweep: closed-loop threads x read-pct grid, campaign-parallel ---- *)

let int_list_of_string s =
  try
    Ok
      (String.split_on_char ',' s
      |> List.filter (fun t -> String.trim t <> "")
      |> List.map (fun t -> int_of_string (String.trim t)))
  with _ -> Error (Printf.sprintf "bad integer list %S" s)

let float_list_of_string s =
  try
    Ok
      (String.split_on_char ',' s
      |> List.filter (fun t -> String.trim t <> "")
      |> List.map (fun t -> float_of_string (String.trim t)))
  with _ -> Error (Printf.sprintf "bad number list %S" s)

let map_systems ds : ((module SYSTEMS), string) result =
  match ds with
  | "hashmap" -> Ok (module Experiment.Systems (Seqds.Hashmap) : SYSTEMS)
  | "rbtree" -> Ok (module Experiment.Systems (Seqds.Rbtree) : SYSTEMS)
  | "skiplist" -> Ok (module Experiment.Systems (Seqds.Skiplist) : SYSTEMS)
  | other ->
    Error
      (Printf.sprintf
         "data structure %S is not a map (sweep/serve-sim need --read-pct \
          workloads: hashmap, rbtree or skiplist)"
         other)

let threads_list_arg =
  let doc = "Comma-separated worker-thread counts to sweep." in
  Arg.(value & opt string "2,8,16" & info [ "threads-list" ] ~docv:"LIST" ~doc)

let read_pcts_arg =
  let doc = "Comma-separated read percentages to sweep." in
  Arg.(value & opt string "50,90" & info [ "read-pcts" ] ~docv:"LIST" ~doc)

let sweep_json_arg =
  let doc = "Write a bench-schema JSON artifact of the grid to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let sweep system ds threads_list read_pcts epsilon keys duration seed flit
    dist_rw log_mirror slot_bitmap detect uc_shards jobs json =
  let fail msg = `Error (true, msg) in
  match
    (int_list_of_string threads_list, int_list_of_string read_pcts,
     map_systems ds)
  with
  | Error m, _, _ | _, Error m, _ | _, _, Error m -> fail m
  | Ok threads_l, Ok pcts, Ok (module Sy) -> (
    let max_workers = Sim.Topology.total_cores Sim.Topology.default - 1 in
    if threads_l = [] || pcts = [] then fail "empty sweep grid"
    else if
      List.exists (fun t -> t < 1 || t > max_workers) threads_l
      || List.exists (fun p -> p < 0 || p > 100) pcts
    then
      fail
        (Printf.sprintf "grid out of range (threads 1-%d, read-pct 0-100)"
           max_workers)
    else
      match
        select_system ~uc_shards ~system ~epsilon ~flit ~dist_rw ~log_mirror
          ~slot_bitmap ~detect (module Sy)
      with
      | Error m -> fail m
      | Ok sys ->
        let grid =
          Array.of_list
            (List.concat_map
               (fun t -> List.map (fun p -> (t, p)) pcts)
               threads_l)
        in
        let results =
          Campaign.map ~j:jobs
            (fun (t, p) ->
              Experiment.run ~seed:(Int64.of_int seed) ~duration_ns:duration
                ~warmup_ns:(duration / 5) ~system:sys
                ~workload:
                  (Workload.map_workload ~read_pct:p ~key_range:keys
                     ~prefill_n:(keys / 2))
                ~workers:t ())
            grid
        in
        Array.iter
          (fun (r : Experiment.result) ->
            Printf.printf "%s | %s | %2d threads: %.0f ops/sec (%d ops)\n"
              r.Experiment.system r.Experiment.workload r.Experiment.workers
              r.Experiment.throughput r.Experiment.ops)
          results;
        (match json with
         | None -> `Ok ()
         | Some path -> (
           let contents =
             Printf.sprintf
               "{\n  \"schema_version\": %d,\n\
               \  \"config\": {\"system_name\": %S, \"ds\": %S, \"epsilon\": %d, \
                \"key_range\": %d, \"duration_ns\": %d, \"seed\": %d},\n\
               \  \"results\": [\n    %s\n  ]\n}\n"
               Telemetry.Json.schema_version system ds epsilon keys duration
               seed
               (String.concat ",\n    "
                  (Array.to_list (Array.map Experiment.to_json results)))
           in
           match write_bench_json path contents with
           | Ok () -> `Ok ()
           | Error m -> `Error (false, m))))

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Closed-loop throughput grid over worker threads x read percentage, \
          fanned across domains with -j; emits a bench-schema JSON artifact")
    Term.(
      ret
        (const sweep $ system_arg $ ds_arg $ threads_list_arg $ read_pcts_arg
       $ epsilon_arg $ keys_arg $ duration_arg $ seed_arg $ flit_arg
       $ dist_rw_arg $ log_mirror_arg $ slot_bitmap_arg $ detect_arg
       $ uc_shards_arg $ jobs_arg $ sweep_json_arg))

(* ---- serve-sim: open-loop arrival-process points ---- *)

let arrival_arg =
  let doc = "Arrival process: poisson, bursty (MMPP-2) or diurnal." in
  Arg.(value & opt string "poisson" & info [ "arrival" ] ~docv:"PROC" ~doc)

let rates_arg =
  let doc = "Comma-separated mean offered loads, simulated ops/s." in
  Arg.(value & opt string "1e6" & info [ "rates" ] ~docv:"LIST" ~doc)

let theta_arg =
  let doc = "Zipfian key-popularity skew in (0,1); 0 means uniform keys." in
  Arg.(value & opt float 0.0 & info [ "theta" ] ~docv:"THETA" ~doc)

let burst_ratio_arg =
  let doc = "Bursty arrivals: high-phase rate over low-phase rate." in
  Arg.(value & opt float 4.0 & info [ "burst-ratio" ] ~docv:"R" ~doc)

let dwell_arg =
  let doc = "Bursty arrivals: mean phase dwell time, simulated ns." in
  Arg.(value & opt int 200_000 & info [ "dwell" ] ~docv:"NS" ~doc)

let period_arg =
  let doc = "Diurnal arrivals: modulation period, simulated ns." in
  Arg.(value & opt int 2_000_000 & info [ "period" ] ~docv:"NS" ~doc)

(* An arrival process with the requested mean rate. Bursty splits the mean
   across the two phases at [burst_ratio]; diurnal inverts the 0.55-of-peak
   mean of the thinned cosine profile. *)
let arrival_of ~arrival ~burst_ratio ~dwell ~period rate =
  match arrival with
  | "poisson" -> Ok (Workload.Arrival.Poisson { rate })
  | "bursty" ->
    let rate_low = 2.0 *. rate /. (1.0 +. burst_ratio) in
    Ok
      (Workload.Arrival.Bursty
         {
           rate_low;
           rate_high = burst_ratio *. rate_low;
           dwell_ns = float_of_int dwell;
         })
  | "diurnal" ->
    Ok
      (Workload.Arrival.Diurnal
         { rate_peak = rate /. 0.55; period_ns = float_of_int period })
  | other -> Error (Printf.sprintf "unknown arrival process %S" other)

let shed_arg =
  let doc =
    "Drop-tail admission control: arrivals beyond a backlog of $(docv) \
     queued requests are shed at arrival time instead of queued; shed \
     counts and shed rate are reported per point and in the JSON."
  in
  Arg.(value & opt (some int) None & info [ "shed" ] ~docv:"DEPTH" ~doc)

let serve_sim system ds threads epsilon read_pct keys duration seed flit
    dist_rw log_mirror slot_bitmap detect uc_shards arrival rates theta
    burst_ratio dwell period shed jobs json =
  let fail msg = `Error (true, msg) in
  match (float_list_of_string rates, map_systems ds) with
  | Error m, _ | _, Error m -> fail m
  | Ok rates_l, Ok (module Sy) -> (
    if rates_l = [] then fail "empty --rates list"
    else if List.exists (fun r -> r <= 0.0) rates_l then
      fail "--rates must be positive"
    else if theta < 0.0 || theta >= 1.0 then
      fail "--theta must be 0 (uniform) or in (0,1)"
    else
      match
        ( select_system ~uc_shards ~system ~epsilon ~flit ~dist_rw
            ~log_mirror ~slot_bitmap ~detect (module Sy),
          arrival_of ~arrival ~burst_ratio ~dwell ~period 1.0 )
      with
      | Error m, _ | _, Error m -> fail m
      | Ok sys, Ok _ ->
        let workload =
          if theta = 0.0 then
            Workload.map_workload ~read_pct ~key_range:keys
              ~prefill_n:(keys / 2)
          else
            Workload.map_workload_zipf ~theta ~read_pct ~key_range:keys
              ~prefill_n:(keys / 2)
        in
        let points =
          Campaign.map ~j:jobs
            (fun rate ->
              let arr =
                match arrival_of ~arrival ~burst_ratio ~dwell ~period rate with
                | Ok a -> a
                | Error m -> failwith m
              in
              Openloop.run ~seed:(Int64.of_int seed) ~duration_ns:duration
                ?shed ~system:sys ~workload ~arrival:arr ~workers:threads ())
            (Array.of_list rates_l)
          |> Array.to_list
        in
        List.iter
          (fun (p : Openloop.point) ->
            Printf.printf
              "%s | %s | offered %.0f/s: completed %d/%d (backlog %d, qpeak \
               %d%s)  sojourn p50 %d p95 %d p99 %d ns\n"
              p.Openloop.ol_system p.Openloop.ol_workload
              p.Openloop.ol_offered p.Openloop.ol_completed
              p.Openloop.ol_arrivals p.Openloop.ol_backlogged
              p.Openloop.ol_qmax
              (if p.Openloop.ol_shed > 0 then
                 Printf.sprintf ", shed %d" p.Openloop.ol_shed
               else "")
              p.Openloop.ol_sojourn.Telemetry.Registry.hs_p50
              p.Openloop.ol_sojourn.Telemetry.Registry.hs_p95
              p.Openloop.ol_sojourn.Telemetry.Registry.hs_p99)
          points;
        (match Openloop.knee points with
         | Some k -> Printf.printf "saturation knee: %.0f ops/s\n" k
         | None -> print_endline "saturation knee: not reached");
        (match json with
         | None -> `Ok ()
         | Some path -> (
           let contents =
             Printf.sprintf
               "{\n  \"schema_version\": %d,\n\
               \  \"config\": {\"system_name\": %S, \"ds\": %S, \"arrival\": %S, \
                \"read_pct\": %d, \"zipf_theta\": %.2f, \"epsilon\": %d, \
                \"duration_ns\": %d, \"seed\": %d},\n\
               \  \"curves\": [\n%s\n  ]\n}\n"
               Telemetry.Json.schema_version system ds arrival read_pct theta
               epsilon duration seed
               (Openloop.curve_to_json ~indent:4 points)
           in
           match write_bench_json path contents with
           | Ok () -> `Ok ()
           | Error m -> `Error (false, m))))

let serve_sim_cmd =
  Cmd.v
    (Cmd.info "serve-sim"
       ~doc:
         "Open-loop service simulation: a Poisson/bursty/diurnal arrival \
          process feeds an admission queue in front of the flat-combining \
          slots; reports arrival-to-response sojourn percentiles per \
          offered load and the saturation knee")
    Term.(
      ret
        (const serve_sim $ system_arg $ ds_arg $ threads_arg $ epsilon_arg
       $ read_pct_arg $ keys_arg $ duration_arg $ seed_arg $ flit_arg
       $ dist_rw_arg $ log_mirror_arg $ slot_bitmap_arg $ detect_arg
       $ uc_shards_arg $ arrival_arg $ rates_arg $ theta_arg
       $ burst_ratio_arg $ dwell_arg $ period_arg $ shed_arg $ jobs_arg
       $ sweep_json_arg))


(* ---- ckptscale: checkpoint cost vs dirty set, recovery vs object size ---- *)

(* One measured point of the incremental-checkpoint scaling study: prefill
   an rbtree with [n] keys under PREP-Durable, hammer a ~[dirty_pct]% key
   range so checkpoints see a small dirty set, read the per-checkpoint
   simulated cost counters, then crash and time recovery up to the first
   executed operation. [lsm] selects the backend under test; the baseline
   is the whole-replica flush checkpoint. *)
type ck_point = {
  ck_system : string;
  ck_keys : int;
  ck_ops : int;
  ck_duration_ns : int;
  ck_ckpts : int;
  ck_cost_avg : int;
  ck_cost_last : int;
  ck_recovery_ns : int;
  ck_segments : int;
  ck_compactions : int;
  ck_counters : Telemetry.Registry.snapshot;
}

let ckpt_episode ~lsm ~lsm_fanout ~n ~dirty_pct ~epsilon ~threads
    ~ops_per_worker ~seed =
  let module Uc = Prep.Prep_uc.Make (Seqds.Rbtree) in
  let module R = Seqds.Rbtree in
  let topology = Sim.Topology.default in
  let sim = Sim.create ~seed:(Int64.of_int seed) topology in
  let mem =
    Nvm.Memory.make ~sockets:topology.Sim.Topology.sockets ~bg_period:5000 ()
  in
  let uc_ref = ref None in
  let work_ns = ref 0 in
  let done_count = ref 0 in
  let dirty_range = max 64 (n * dirty_pct / 100) in
  (* The crash lands after a closing phase over a small FIXED window, so
     the log suffix recovery must replay describes the same workload at
     every object size — isolating the recovery-vs-size measurement from
     the dirty set (which scales with n by design). *)
  let tail_range = 512 in
  let tail_per_worker = max 1 (3 * epsilon / 2 / threads) in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         let roots = Nvm.Roots.make mem in
         let cfg =
           (* the baseline checkpoints with the practical whole-replica
              heap walk (O(n) lines), not the flat-cost WBINVD stall —
              that is the curve the O(dirty) claim is measured against *)
           Prep.Config.make ~mode:Prep.Config.Durable ~log_size:16384
             ~epsilon ~workers:threads ~flush:Prep.Config.Flush_heap
             ~lsm_ckpt:lsm ~lsm_fanout ()
         in
         let prefill = List.init n (fun k -> (R.op_insert, [| k; k |])) in
         let uc = Uc.create ~prefill mem roots cfg in
         uc_ref := Some uc;
         Uc.start_persistence uc;
         for w = 0 to threads - 1 do
           let socket, core = Sim.Topology.place topology w in
           Sim.spawn_here ~socket ~core (fun () ->
               Uc.register_worker uc;
               let rng = Sim.fiber_rng () in
               for _ = 1 to ops_per_worker do
                 let k = Sim.Rng.int rng dirty_range in
                 ignore
                   (Uc.execute uc ~op:R.op_insert
                      ~args:[| k; 1 + Sim.Rng.int rng 1000 |])
               done;
               for _ = 1 to tail_per_worker do
                 let k = Sim.Rng.int rng tail_range in
                 ignore
                   (Uc.execute uc ~op:R.op_insert
                      ~args:[| k; 1 + Sim.Rng.int rng 1000 |])
               done;
               incr done_count)
         done;
         while !done_count < threads do
           Sim.tick 50_000
         done;
         work_ns := Sim.now ();
         Uc.stop uc));
  (match Sim.run sim () with
   | `Done -> ()
   | `Cut _ -> failwith "ckptscale: workload wedged");
  let uc = Option.get !uc_ref in
  let counter name =
    match List.assoc_opt name (Uc.counters uc) with Some v -> v | None -> 0
  in
  let ckpts = counter "ckpt_count" in
  let cost_total = counter "ckpt_cost_total" in
  let cost_last = counter "ckpt_cost_last" in
  let segments = counter "lsm_segments_live" in
  let compactions = counter "lsm_compactions" in
  (* power failure, then time recovery through the first executed op *)
  Nvm.Memory.crash mem;
  Nvm.Context.reset ();
  let recovery_ns = ref 0 in
  let sim2 = Sim.create ~seed:(Int64.of_int (seed + 1)) topology in
  ignore
    (Sim.spawn sim2 ~socket:0 (fun () ->
         let uc2, _report = Uc.recover uc in
         Uc.register_worker uc2;
         ignore (Uc.execute uc2 ~op:R.op_get ~args:[| 0 |]);
         recovery_ns := Sim.now ()));
  (match Sim.run sim2 () with
   | `Done -> ()
   | `Cut _ -> failwith "ckptscale: recovery wedged");
  Nvm.Context.reset ();
  {
    ck_system = (if lsm then "PREP-Durable/lsm" else "PREP-Durable");
    ck_keys = n;
    ck_ops = threads * (ops_per_worker + tail_per_worker);
    ck_duration_ns = !work_ns;
    ck_ckpts = ckpts;
    ck_cost_avg = (if ckpts = 0 then 0 else cost_total / ckpts);
    ck_cost_last = cost_last;
    ck_recovery_ns = !recovery_ns;
    ck_segments = segments;
    ck_compactions = compactions;
    ck_counters = Nvm.Memory.counters mem;
  }

let json_of_ck_point p =
  let counters =
    [ ("keys", p.ck_keys); ("ckpts", p.ck_ckpts);
      ("ckpt_cost_avg_ns", p.ck_cost_avg);
      ("ckpt_cost_last_ns", p.ck_cost_last);
      ("recovery_first_op_ns", p.ck_recovery_ns);
      ("lsm_segments_live", p.ck_segments);
      ("lsm_compactions", p.ck_compactions) ]
  in
  Telemetry.Json.bench_record ~system:p.ck_system
    ~workload:(Printf.sprintf "ckptscale keys=%d" p.ck_keys)
    ~workers:0 ~ops:p.ck_ops ~duration_ns:p.ck_duration_ns
    ~throughput:
      (float_of_int p.ck_ops *. 1e9 /. float_of_int (max 1 p.ck_duration_ns))
    ~counters p.ck_counters

let sizes_arg =
  let doc = "Comma-separated object sizes (prefill key counts) to sweep." in
  Arg.(value & opt string "10000,100000" & info [ "sizes" ] ~docv:"LIST" ~doc)

let dirty_pct_arg =
  let doc =
    "Percent of the key space the workload dirties between checkpoints."
  in
  Arg.(value & opt int 1 & info [ "dirty-pct" ] ~docv:"PCT" ~doc)

let ckpt_ratio_arg =
  let doc =
    "Gate: at the largest size the baseline checkpoint must cost at least \
     $(docv) times the incremental one."
  in
  Arg.(value & opt float 10.0 & info [ "min-ratio" ] ~docv:"R" ~doc)

let recovery_flat_arg =
  let doc =
    "Gate: incremental recovery-to-first-op across sizes must stay within \
     a factor $(docv) of its minimum."
  in
  Arg.(value & opt float 2.0 & info [ "max-recovery-spread" ] ~docv:"R" ~doc)

let no_gate_arg =
  let doc = "Report the table without enforcing the scaling gates." in
  Arg.(value & flag & info [ "no-gate" ] ~doc)

let ckptscale sizes dirty_pct epsilon threads seed lsm_fanout min_ratio
    max_spread no_gate json =
  match int_list_of_string sizes with
  | Error m -> `Error (true, m)
  | Ok [] -> `Error (true, "empty --sizes list")
  | Ok sizes_l ->
    if List.exists (fun n -> n < 1000) sizes_l then
      `Error (true, "--sizes entries must be at least 1000")
    else if dirty_pct < 1 || dirty_pct > 100 then
      `Error (true, "--dirty-pct must be in 1..100")
    else if lsm_fanout < 2 then
      `Error (true, "--lsm-fanout must be at least 2")
    else begin
      (* enough update traffic for several seals past the prefill *)
      let ops_per_worker = max 1 (3 * epsilon / max 1 threads) in
      let points =
        List.concat_map
          (fun n ->
            List.map
              (fun lsm ->
                ckpt_episode ~lsm ~lsm_fanout ~n ~dirty_pct ~epsilon
                  ~threads ~ops_per_worker ~seed)
              [ false; true ])
          sizes_l
      in
      Printf.printf
        "%-18s %9s %6s %14s %16s %9s %6s\n"
        "system" "keys" "ckpts" "ckpt-avg-ns" "recovery-ns" "segs" "cmpct";
      List.iter
        (fun p ->
          Printf.printf "%-18s %9d %6d %14d %16d %9d %6d\n" p.ck_system
            p.ck_keys p.ck_ckpts p.ck_cost_avg p.ck_recovery_ns
            p.ck_segments p.ck_compactions)
        points;
      let lsm_points =
        List.filter (fun p -> p.ck_system = "PREP-Durable/lsm") points
      in
      let base_points =
        List.filter (fun p -> p.ck_system = "PREP-Durable") points
      in
      let n_max = List.fold_left (fun a n -> max a n) 0 sizes_l in
      let at sys_points n = List.find (fun p -> p.ck_keys = n) sys_points in
      let ratio =
        let b = at base_points n_max and l = at lsm_points n_max in
        if l.ck_cost_avg = 0 then infinity
        else float_of_int b.ck_cost_avg /. float_of_int l.ck_cost_avg
      in
      let rec_min, rec_max =
        List.fold_left
          (fun (lo, hi) p -> (min lo p.ck_recovery_ns, max hi p.ck_recovery_ns))
          (max_int, 0) lsm_points
      in
      let spread =
        if rec_min = 0 then infinity
        else float_of_int rec_max /. float_of_int rec_min
      in
      Printf.printf
        "checkpoint cost ratio at %d keys (baseline/lsm): %.1fx (gate >= \
         %.1fx)\n"
        n_max ratio min_ratio;
      Printf.printf
        "lsm recovery-to-first-op spread across sizes: %.2fx (gate <= %.2fx)\n"
        spread max_spread;
      let json_status =
        match json with
        | None -> Ok ()
        | Some path ->
          let contents =
            Printf.sprintf
              "{\n  \"schema_version\": %d,\n\
              \  \"config\": {\"ds\": \"rbtree\", \"dirty_pct\": %d, \"epsilon\": \
               %d, \"threads\": %d, \"seed\": %d, \"lsm_fanout\": %d},\n\
              \  \"results\": [\n    %s\n  ]\n}\n"
              Telemetry.Json.schema_version dirty_pct epsilon threads seed
              lsm_fanout
              (String.concat ",\n    " (List.map json_of_ck_point points))
          in
          write_bench_json path contents
      in
      match json_status with
      | Error m -> `Error (false, m)
      | Ok () ->
        if no_gate then `Ok ()
        else if ratio < min_ratio then
          `Error
            ( false,
              Printf.sprintf
                "ckptscale gate FAILED: baseline/lsm checkpoint cost ratio \
                 %.1fx < %.1fx at %d keys"
                ratio min_ratio n_max )
        else if List.length sizes_l > 1 && spread > max_spread then
          `Error
            ( false,
              Printf.sprintf
                "ckptscale gate FAILED: lsm recovery spread %.2fx > %.2fx"
                spread max_spread )
        else begin
          print_endline "ckptscale gates: PASS";
          `Ok ()
        end
    end

let ckpt_threads_arg =
  Arg.(value & opt int 4 & info [ "threads"; "t" ] ~docv:"N" ~doc:"Worker threads.")

let ckpt_epsilon_arg =
  Arg.(value & opt int 4096 & info [ "epsilon"; "e" ] ~docv:"EPS" ~doc:"Flush boundary step.")

let ckptscale_cmd =
  Cmd.v
    (Cmd.info "ckptscale"
       ~doc:
         "Incremental-checkpoint scaling study: checkpoint cost vs dirty-set \
          size and recovery-to-first-op vs object size, baseline \
          whole-replica flush against --lsm-ckpt, with CI gates on the \
          O(dirty) cost ratio and recovery flatness")
    Term.(
      ret
        (const ckptscale $ sizes_arg $ dirty_pct_arg $ ckpt_epsilon_arg
       $ ckpt_threads_arg $ seed_arg $ lsm_fanout_arg $ ckpt_ratio_arg
       $ recovery_flat_arg $ no_gate_arg $ sweep_json_arg))

let () =
  let info =
    Cmd.info "prep-cli" ~version:"1.0.0"
      ~doc:"PREP-UC (SPAA 2022) reproduction driver"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ bench_cmd; run_cmd; profile_cmd; validate_cmd; crash_cmd;
            fuzz_cmd; explore_cmd; optimize_persist_cmd; session_cmd;
            sweep_cmd; serve_sim_cmd; ckptscale_cmd ]))
