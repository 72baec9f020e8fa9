(* Benchmark harness.

   Default mode regenerates every table and figure of the paper's
   evaluation (printed as text tables; see EXPERIMENTS.md for the
   paper-vs-measured comparison). `micro` runs one Bechamel Test.make per
   table/figure: each test executes a small representative point of that
   experiment, so Bechamel measures the real-time cost of regenerating a
   data point.

     dune exec bench/main.exe             # all figures, quick scale
     FULL=1 dune exec bench/main.exe      # paper-scale parameters
     dune exec bench/main.exe fig2        # a single figure
     dune exec bench/main.exe micro       # Bechamel micro-benchmarks *)

open Bechamel
open Harness

(* A reduced scale so each Bechamel sample stays ~tens of milliseconds. *)
let micro_scale =
  {
    Figures.quick with
    Figures.label = "micro";
    threads = [ 4 ];
    key_range = 1024;
    log_size = 4096;
    eps_small = 64;
    eps_large = 1024;
    duration_ns = 300_000;
    warmup_ns = 60_000;
  }

let micro_point ~system ~workload =
  ignore (Figures.point micro_scale ~system ~workload ~threads:4)

let map_workload read_pct =
  Workload.map_workload ~read_pct ~key_range:micro_scale.Figures.key_range
    ~prefill_n:(micro_scale.Figures.key_range / 2)

module Hm = Experiment.Systems (Seqds.Hashmap)
module Rb = Experiment.Systems (Seqds.Rbtree)
module Qu = Experiment.Systems (Seqds.Queue_ds)
module Pq = Experiment.Systems (Seqds.Pqueue)
module St = Experiment.Systems (Seqds.Stack_ds)

let prep mk mode eps =
  mk
    ?log_size:(Some micro_scale.Figures.log_size)
    ?flush:None ?flit:None ?dist_rw:None ?log_mirror:None ?slot_bitmap:None
    ?detect:None ?lsm_ckpt:None ?lsm_fanout:None ?lsm_compact:None
    ?persist_policy:None ?name:None ~mode ~epsilon:eps ()

(* One Bechamel test per table/figure of the paper. *)
let bechamel_tests =
  [
    Test.make ~name:"table1.log-indexes"
      (Staged.stage (fun () ->
           (* the index machinery Table 1 summarises: reserve, write,
              publish and consume one log entry *)
           Sim.run_one (fun () ->
               let mem = Nvm.Memory.make ~bg_period:0 () in
               let log = Prep.Log.create mem ~size:64 ~durable:false in
               for i = 0 to 63 do
                 Prep.Log.write_payload log i ~op:0 ~args:[| i |];
                 Prep.Log.publish log i
               done;
               for i = 0 to 63 do
                 ignore (Prep.Log.wait_and_read log i)
               done)));
    Test.make ~name:"fig1.volatile-ucs"
      (Staged.stage (fun () ->
           micro_point
             ~system:(prep Hm.prep Prep.Config.Volatile 1)
             ~workload:(map_workload 90)));
    Test.make ~name:"fig2.pucs-hashmap"
      (Staged.stage (fun () ->
           micro_point
             ~system:(prep Hm.prep Prep.Config.Buffered 1024)
             ~workload:(map_workload 90)));
    Test.make ~name:"fig3.epsilon-effect"
      (Staged.stage (fun () ->
           micro_point
             ~system:(prep Hm.prep Prep.Config.Durable 64)
             ~workload:(map_workload 90)));
    Test.make ~name:"fig4.pqueue"
      (Staged.stage (fun () ->
           micro_point
             ~system:(prep Pq.prep Prep.Config.Buffered 1024)
             ~workload:(Workload.pqueue_pairs ~prefill_n:1000)));
    Test.make ~name:"fig5.stack"
      (Staged.stage (fun () ->
           micro_point
             ~system:(prep St.prep Prep.Config.Buffered 1024)
             ~workload:(Workload.stack_pairs ~prefill_n:500)));
    Test.make ~name:"fig6.soft-hashtable"
      (Staged.stage (fun () ->
           micro_point
             ~system:(Experiment.soft ~nbuckets:1000)
             ~workload:(map_workload 90)));
  ]

let run_micro () =
  print_endline "Bechamel micro-benchmarks: real-time cost per figure point";
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~kde:None
      ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg Toolkit.Instance.[ monotonic_clock ] elt in
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          let nanos =
            match Analyze.OLS.estimates est with
            | Some (e :: _) -> e
            | _ -> nan
          in
          Printf.printf "%-28s %12.3f ms/run\n%!" (Test.Elt.name elt)
            (nanos /. 1e6))
        (Test.elements test))
    bechamel_tests

(* ---- bench smoke: baseline vs FliT PREP-Durable, JSON artifact ----

   A small fixed config runs the same update-heavy hashmap point with the
   flush-elimination layer off and on, writes both results (with the full
   flush-traffic counters) as JSON, and fails if the optimized variant's
   simulated throughput regresses below the baseline's or its elision
   counters are zero — the CI guard for this repo's first performance
   optimization. *)

let smoke_scale =
  {
    Figures.quick with
    Figures.label = "smoke";
    threads = [ 12 ];
    key_range = 2048;
    log_size = 16384;
    eps_large = 4096;
    duration_ns = 1_500_000;
    warmup_ns = 300_000;
  }

(* Write a bench artifact, then check the exact bytes written against the
   bench schema — a malformed artifact fails the producing job, not some
   downstream consumer. *)
let write_validated path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  match Telemetry.Json.(validate_string validate_bench contents) with
  | Ok () -> ()
  | Error errs ->
    List.iter (fun e -> Printf.eprintf "%s: %s\n" path e) errs;
    Printf.eprintf "bench FAILED: %s does not validate against the bench schema\n" path;
    exit 1

let run_smoke path =
  let scale = smoke_scale in
  let threads = 12 in
  let workload =
    Workload.map_workload ~read_pct:50 ~key_range:scale.Figures.key_range
      ~prefill_n:(scale.Figures.key_range / 2)
  in
  let run_variant flit =
    Experiment.run ~topology:scale.Figures.topology
      ~duration_ns:scale.Figures.duration_ns
      ~warmup_ns:scale.Figures.warmup_ns
      ~system:
        (Hm.prep ~log_size:scale.Figures.log_size ~flit
           ~mode:Prep.Config.Durable ~epsilon:scale.Figures.eps_large ())
      ~workload ~workers:threads ()
  in
  let base = run_variant false in
  let flit = run_variant true in
  let speedup = flit.Experiment.throughput /. base.Experiment.throughput in
  (* second guard: the NUMA hot-path package (distributed reader lock +
     DRAM log mirror + slot bitmap) must not regress a 90%-read point at
     the top quick-scale thread count, on top of flit *)
  let threads90 = 23 in
  let workload90 =
    Workload.map_workload ~read_pct:90 ~key_range:scale.Figures.key_range
      ~prefill_n:(scale.Figures.key_range / 2)
  in
  let run_variant90 opt =
    Experiment.run ~topology:scale.Figures.topology
      ~duration_ns:scale.Figures.duration_ns
      ~warmup_ns:scale.Figures.warmup_ns
      ~system:
        (Hm.prep ~log_size:scale.Figures.log_size ~flit:true ~dist_rw:opt
           ~log_mirror:opt ~slot_bitmap:opt ~mode:Prep.Config.Durable
           ~epsilon:scale.Figures.eps_large ())
      ~workload:workload90 ~workers:threads90 ()
  in
  let base90 = run_variant90 false in
  let numa90 = run_variant90 true in
  let speedup90 = numa90.Experiment.throughput /. base90.Experiment.throughput in
  let removed =
    Telemetry.Json.derived flit.Experiment.telemetry "flit_removed"
  in
  write_validated path
    (Printf.sprintf
       "{\n  \"schema_version\": %d,\n\
       \  \"config\": {\"threads\": %d, \"key_range\": %d, \"log_size\": %d, \
        \"epsilon\": %d, \"read_pct\": 50, \"duration_ns\": %d},\n\
       \  \"baseline\": %s,\n  \"flit\": %s,\n  \"speedup\": %.4f,\n\
       \  \"read90\": {\"threads\": %d, \"read_pct\": 90,\n\
       \    \"baseline\": %s,\n    \"numa\": %s,\n    \"speedup\": %.4f\n  }\n}\n"
       Telemetry.Json.schema_version threads scale.Figures.key_range
       scale.Figures.log_size scale.Figures.eps_large
       scale.Figures.duration_ns (Experiment.to_json base) (Experiment.to_json flit)
       speedup threads90 (Experiment.to_json base90) (Experiment.to_json numa90)
       speedup90);
  Printf.printf
    "bench smoke: baseline %.0f ops/s, flit %.0f ops/s (%.1f%% %s); \
     elided+coalesced = %d; artifact: %s\n%!"
    base.Experiment.throughput flit.Experiment.throughput
    (abs_float (speedup -. 1.0) *. 100.)
    (if speedup >= 1.0 then "faster" else "SLOWER")
    removed path;
  Printf.printf
    "bench smoke (90%% read, %d threads): flit %.0f ops/s, \
     flit+dist+mir+bmp %.0f ops/s (%.1f%% %s)\n%!"
    threads90 base90.Experiment.throughput numa90.Experiment.throughput
    (abs_float (speedup90 -. 1.0) *. 100.)
    (if speedup90 >= 1.0 then "faster" else "SLOWER");
  if flit.Experiment.throughput < base.Experiment.throughput then begin
    prerr_endline "bench smoke FAILED: flit variant slower than baseline";
    exit 1
  end;
  if removed = 0 then begin
    prerr_endline "bench smoke FAILED: no flushes elided or coalesced";
    exit 1
  end;
  if numa90.Experiment.throughput < base90.Experiment.throughput then begin
    prerr_endline
      "bench smoke FAILED: dist-rw+log-mirror+slot-bitmap slower than flit \
       alone at the 90%-read point";
    exit 1
  end

(* ---- bench persistgain: proven persistency policy vs FliT ----

   Runs the same update-heavy durable hashmap point four ways — baseline,
   the optimize-persist proven policy alone, FliT alone, and FliT stacked
   with the policy — and writes all four (with full flush-traffic
   counters) as JSON. The policy defaults to the canonical proven set
   (payload-fence defer, checkpoint-fence defer, init-flush elide; CI's
   persist-smoke job re-derives and re-proves exactly this set) and can be
   overridden with a spec/file argument.

   The point of comparison is FliT: FliT elides flushes and fences
   *dynamically* (per-access clean-line tracking), the policy elides them
   *statically* (sites the explorer proved removable). Every site the
   policy can drop, FliT's tracking also drops at runtime — the batched
   log path skips the payload fence and clean-tracking skips the
   post-checkpoint fence — so FliT+policy is expected to equal FliT on
   traffic; the policy's win over FliT is reaching the same fence floor
   with zero per-access bookkeeping. Gates, all on per-op traffic so
   faster variants aren't penalized for completing more ops:

   - the policy alone must cut fence traffic AND combined flush+fence
     traffic vs the baseline (the static win is measurable);
   - the policy alone must reach FliT's per-op fence floor (within 10%)
     without FliT's tracking, and must not regress FliT's simulated
     throughput (it typically beats it: no tracking overhead);
   - stacking must never hurt: FliT+policy traffic and throughput must
     be no worse than FliT alone. *)

let proven_policy_spec =
  "log.fence_payload=defer-to-next-fence,\
   prep.checkpoint=defer-to-next-fence,prep.init=elide"

let run_persistgain path policy_arg =
  let policy =
    let arg = Option.value policy_arg ~default:proven_policy_spec in
    match Nvm.Persist.load arg with
    | Ok p -> p
    | Error e ->
      Printf.eprintf "persistgain: bad policy %S: %s\n" arg e;
      exit 1
  in
  let scale = smoke_scale in
  let threads = 12 in
  (* a short persistence cycle keeps the checkpoint path hot, so the
     deferred checkpoint fence is visible even under FliT (whose batched
     log path already skips the payload fence the policy drops) *)
  let epsilon = 64 in
  let workload =
    Workload.map_workload ~read_pct:50 ~key_range:scale.Figures.key_range
      ~prefill_n:(scale.Figures.key_range / 2)
  in
  let run_variant ~flit ~pol =
    Experiment.run ~topology:scale.Figures.topology
      ~duration_ns:scale.Figures.duration_ns
      ~warmup_ns:scale.Figures.warmup_ns
      ~system:
        (Hm.prep ~log_size:scale.Figures.log_size ~flit
           ?persist_policy:(if pol then Some policy else None)
           ~mode:Prep.Config.Durable ~epsilon ())
      ~workload ~workers:threads ()
  in
  let base = run_variant ~flit:false ~pol:false in
  let pol = run_variant ~flit:false ~pol:true in
  let flit = run_variant ~flit:true ~pol:false in
  let both = run_variant ~flit:true ~pol:true in
  let count r = Telemetry.Json.derived r.Experiment.telemetry in
  let flushes r = count r "clwb" + count r "clflush" + count r "wbinvd" in
  let fences r = count r "sfence" in
  let per_op n (r : Experiment.result) =
    float_of_int n /. float_of_int (max 1 r.Experiment.ops)
  in
  let traffic r = per_op (flushes r + fences r) r in
  let report tag (r : Experiment.result) =
    Printf.printf
      "%-12s %10.0f ops/s  %6d flushes  %6d fences  (%.3f traffic/op)\n%!"
      tag r.Experiment.throughput (flushes r) (fences r) (traffic r)
  in
  report "baseline" base;
  report "policy" pol;
  report "flit" flit;
  report "flit+policy" both;
  let speedup = pol.Experiment.throughput /. flit.Experiment.throughput in
  write_validated path
    (Printf.sprintf
       "{\n  \"schema_version\": %d,\n\
       \  \"config\": {\"threads\": %d, \"key_range\": %d, \"log_size\": %d, \
        \"epsilon\": %d, \"read_pct\": 50, \"duration_ns\": %d, \
        \"policy\": %S},\n\
       \  \"baseline\": %s,\n  \"policy\": %s,\n  \"flit\": %s,\n\
       \  \"flit_policy\": %s,\n  \"speedup\": %.4f\n}\n"
       Telemetry.Json.schema_version threads scale.Figures.key_range
       scale.Figures.log_size epsilon scale.Figures.duration_ns
       (Nvm.Persist.to_spec policy)
       (Experiment.to_json base) (Experiment.to_json pol) (Experiment.to_json flit)
       (Experiment.to_json both) speedup);
  Printf.printf
    "bench persistgain: policy fences/op %.3f vs baseline %.3f (flit %.3f); \
     policy traffic/op %.3f vs baseline %.3f; policy vs flit throughput \
     %.1f%% %s; artifact: %s\n%!"
    (per_op (fences pol) pol)
    (per_op (fences base) base)
    (per_op (fences flit) flit)
    (traffic pol) (traffic base)
    (abs_float (speedup -. 1.0) *. 100.)
    (if speedup >= 1.0 then "faster" else "SLOWER")
    path;
  if per_op (fences pol) pol >= per_op (fences base) base then begin
    prerr_endline
      "bench persistgain FAILED: proven policy does not cut fence traffic \
       vs baseline";
    exit 1
  end;
  if traffic pol >= traffic base then begin
    prerr_endline
      "bench persistgain FAILED: proven policy does not cut flush+fence \
       traffic vs baseline";
    exit 1
  end;
  if per_op (fences pol) pol > 1.1 *. per_op (fences flit) flit then begin
    prerr_endline
      "bench persistgain FAILED: proven policy misses FliT's fence floor";
    exit 1
  end;
  if speedup < 0.99 then begin
    prerr_endline
      "bench persistgain FAILED: proven policy regresses throughput vs flit";
    exit 1
  end;
  if
    traffic both > traffic flit
    || both.Experiment.throughput < 0.99 *. flit.Experiment.throughput
  then begin
    prerr_endline
      "bench persistgain FAILED: stacking the policy on FliT made it worse";
    exit 1
  end

(* ---- bench readscale: read-ratio sweep, flags off vs on ----

   Sweeps read ratio {0, 50, 90, 99}% x the quick-scale thread counts on
   the PREP-Durable hashmap, comparing `--flit` alone against
   `--flit --dist-rw --log-mirror --slot-bitmap`, and writes every point
   (with the lock/mirror/bitmap counters) in the same JSON schema as
   `smoke`. *)

let run_readscale path =
  let scale = Figures.quick in
  let workload read_pct =
    Workload.map_workload ~read_pct ~key_range:scale.Figures.key_range
      ~prefill_n:(scale.Figures.key_range / 2)
  in
  let system opt =
    Hm.prep ~log_size:scale.Figures.log_size ~flit:true ~dist_rw:opt
      ~log_mirror:opt ~slot_bitmap:opt ~mode:Prep.Config.Durable
      ~epsilon:scale.Figures.eps_large ()
  in
  let points = ref [] in
  Printf.printf "%8s %8s %14s %14s %9s\n%!" "read%" "threads" "flit"
    "flit+numa" "speedup";
  List.iter
    (fun read_pct ->
      List.iter
        (fun threads ->
          let run opt =
            try
              Some
                (Experiment.run ~topology:scale.Figures.topology
                   ~duration_ns:scale.Figures.duration_ns
                   ~warmup_ns:scale.Figures.warmup_ns ~system:(system opt)
                   ~workload:(workload read_pct) ~workers:threads ())
            with Failure msg ->
              Printf.eprintf "[point failed: %s]\n%!" msg;
              None
          in
          match (run false, run true) with
          | Some base, Some numa ->
            let speedup =
              numa.Experiment.throughput /. base.Experiment.throughput
            in
            Printf.printf "%8d %8d %14.0f %14.0f %8.2fx\n%!" read_pct threads
              base.Experiment.throughput numa.Experiment.throughput speedup;
            points :=
              Printf.sprintf
                "    {\"read_pct\": %d, \"threads\": %d,\n\
                \     \"baseline\": %s,\n     \"numa\": %s,\n\
                \     \"speedup\": %.4f}"
                read_pct threads (Experiment.to_json base) (Experiment.to_json numa)
                speedup
              :: !points
          | _ -> ())
        scale.Figures.threads)
    [ 0; 50; 90; 99 ];
  write_validated path
    (Printf.sprintf
       "{\n  \"schema_version\": %d,\n\
       \  \"config\": {\"key_range\": %d, \"log_size\": %d, \"epsilon\": %d, \
        \"duration_ns\": %d},\n  \"points\": [\n%s\n  ]\n}\n"
       Telemetry.Json.schema_version scale.Figures.key_range
       scale.Figures.log_size scale.Figures.eps_large
       scale.Figures.duration_ns
       (String.concat ",\n" (List.rev !points)));
  Printf.printf "artifact: %s\n%!" path

(* ---- bench loadcurve: open-loop latency-vs-offered-load sweep ----

   For each system variant (PREP-Durable baseline, --flit, the full NUMA
   package, --detect), calibrate closed-loop capacity at the same scale,
   then sweep a Poisson arrival ladder from 25% to 150% of that capacity
   through the open-loop runner. Past capacity the admission queue grows
   without bound, censored sojourns blow up the p99, and the knee locator
   marks the first saturated rate — the JSON artifact is the repo's first
   offered-load (rather than closed-loop) result. *)

let loadcurve_ladder = [ 0.25; 0.5; 0.75; 0.9; 1.1; 1.5 ]

let run_loadcurve path =
  let scale = smoke_scale in
  let workers = 8 in
  let theta = 0.99 in
  let workload =
    Workload.map_workload_zipf ~theta ~read_pct:50
      ~key_range:scale.Figures.key_range
      ~prefill_n:(scale.Figures.key_range / 2)
  in
  let ls = scale.Figures.log_size and eps = scale.Figures.eps_large in
  let variants =
    [
      Hm.prep ~log_size:ls ~mode:Prep.Config.Durable ~epsilon:eps ();
      Hm.prep ~log_size:ls ~flit:true ~mode:Prep.Config.Durable ~epsilon:eps ();
      Hm.prep ~log_size:ls ~flit:true ~dist_rw:true ~log_mirror:true
        ~slot_bitmap:true ~mode:Prep.Config.Durable ~epsilon:eps ();
      Hm.prep ~log_size:ls ~detect:true ~mode:Prep.Config.Durable ~epsilon:eps
        ();
    ]
  in
  let curve system =
    let closed =
      Experiment.run ~topology:scale.Figures.topology
        ~duration_ns:scale.Figures.duration_ns
        ~warmup_ns:scale.Figures.warmup_ns ~system ~workload ~workers ()
    in
    let capacity = closed.Experiment.throughput in
    let points =
      List.map
        (fun frac ->
          Openloop.run ~topology:scale.Figures.topology
            ~duration_ns:scale.Figures.duration_ns
            ~warmup_ns:scale.Figures.warmup_ns ~system ~workload
            ~arrival:(Workload.Arrival.Poisson { rate = frac *. capacity })
            ~workers ())
        loadcurve_ladder
    in
    Printf.printf "%-24s capacity %9.0f ops/s  knee %s\n%!"
      system.Experiment.sys_name capacity
      (match Openloop.knee points with
       | Some k -> Printf.sprintf "%9.0f ops/s" k
       | None -> "not reached");
    List.iter
      (fun (p : Openloop.point) ->
        Printf.printf
          "  offered %9.0f  completed %6d/%-6d  p50 %8d  p99 %10d  qpeak %d\n%!"
          p.Openloop.ol_offered p.Openloop.ol_completed p.Openloop.ol_arrivals
          p.Openloop.ol_sojourn.Telemetry.Registry.hs_p50
          p.Openloop.ol_sojourn.Telemetry.Registry.hs_p99 p.Openloop.ol_qmax)
      points;
    points
  in
  let curves = List.map curve variants in
  write_validated path
    (Printf.sprintf
       "{\n  \"schema_version\": %d,\n\
       \  \"config\": {\"workers\": %d, \"read_pct\": 50, \"zipf_theta\": \
        %.2f, \"key_range\": %d, \"log_size\": %d, \"epsilon\": %d, \
        \"duration_ns\": %d},\n\
       \  \"curves\": [\n%s\n  ]\n}\n"
       Telemetry.Json.schema_version workers theta scale.Figures.key_range
       scale.Figures.log_size scale.Figures.eps_large
       scale.Figures.duration_ns
       (String.concat ",\n"
          (List.map (Openloop.curve_to_json ~indent:4) curves)));
  Printf.printf "artifact: %s\n%!" path;
  (* the sweep must actually reach saturation on every curve *)
  if List.exists (fun pts -> Openloop.knee pts = None) curves then begin
    prerr_endline "bench loadcurve FAILED: a curve never saturated";
    exit 1
  end

(* ---- bench shardscale: hash-routed shards, scaling + cross-shard cost ----

   Two sweeps at a fixed total worker count on a >=64k-key hashmap:

   - scaling: shard count in {1, 2, 4, 6} on a pure single-key workload
     (the 64-slot root directory caps the shard count at 7).
     Each shard is an independent PREP-Durable instance (own log, replicas,
     combiner) behind the hash router. Workers submit through the router's
     pipelined batch path (op_batch ops drawn at once, one update in
     flight per shard), since a strictly closed per-op loop caps the
     ratio at the combining *latency* ratio no matter how many combiners
     exist; with one shard the pipeline degenerates to the sequential
     loop, so the baseline is not handicapped. The workload is
     update-heavy (20% reads): reads bypass combining on both sides and
     only dilute what sharding can show. The 4-shard point must clear 3x
     the 1-shard point — the CI guard for this repo's sharding
     optimization.

   - cross-shard ablation: 4 shards, 20% multi-key operations, cross-shard
     fraction in {0, 25, 50, 100}%. A same-shard pair costs one log entry;
     a cross-shard pair costs a 2PC round (one prepare per participant
     log plus a fenced decision write), so throughput degrades smoothly
     with the cross fraction — the measured price of distributed atomicity. *)

let shardscale_scale =
  {
    Figures.quick with
    Figures.label = "shardscale";
    threads = [ 12 ];
    key_range = 65536;
    log_size = 16384;
    eps_large = 4096;
    duration_ns = 3_000_000;
    warmup_ns = 300_000;
  }

let shardscale_read_pct = 20
let shardscale_op_batch = 32

let run_shardscale path =
  let scale = shardscale_scale in
  let workers = 12 in
  let keys = scale.Figures.key_range in
  let workload ~nshards ~multi_pct ~cross_pct =
    Workload.map_workload_sharded ~read_pct:shardscale_read_pct ~multi_pct
      ~cross_pct ~nshards ~key_range:keys ~prefill_n:(keys / 4)
  in
  let point ~shards ~multi_pct ~cross_pct =
    Experiment.run ~topology:scale.Figures.topology
      ~duration_ns:scale.Figures.duration_ns
      ~warmup_ns:scale.Figures.warmup_ns ~op_batch:shardscale_op_batch
      ~system:
        (Hm.prep_sharded ~log_size:scale.Figures.log_size ~slot_bitmap:true
           ~shards ~epsilon:scale.Figures.eps_large ())
      ~workload:(workload ~nshards:shards ~multi_pct ~cross_pct)
      ~workers ()
  in
  Printf.printf "%8s %14s %9s   (single-key, %d workers, %d keys)\n%!"
    "shards" "ops/s" "speedup" workers keys;
  let scaling =
    List.map
      (fun shards ->
        let r = point ~shards ~multi_pct:0 ~cross_pct:0 in
        (shards, r))
      [ 1; 2; 4; 6 ]
  in
  let base_tp =
    match scaling with
    | (_, r) :: _ -> r.Experiment.throughput
    | [] -> assert false
  in
  List.iter
    (fun (shards, r) ->
      Printf.printf "%8d %14.0f %8.2fx\n%!" shards r.Experiment.throughput
        (r.Experiment.throughput /. base_tp))
    scaling;
  Printf.printf "%8s %14s %9s   (4 shards, 20%% multi-key)\n%!" "cross%"
    "ops/s" "vs 0%";
  let ablation =
    List.map
      (fun cross_pct ->
        let r = point ~shards:4 ~multi_pct:20 ~cross_pct in
        (cross_pct, r))
      [ 0; 25; 50; 100 ]
  in
  let abl_base =
    match ablation with
    | (_, r) :: _ -> r.Experiment.throughput
    | [] -> assert false
  in
  List.iter
    (fun (cross_pct, r) ->
      Printf.printf "%8d %14.0f %8.2fx\n%!" cross_pct
        r.Experiment.throughput
        (r.Experiment.throughput /. abl_base))
    ablation;
  let scaling_json =
    List.map
      (fun (shards, r) ->
        Printf.sprintf
          "    {\"shards\": %d, \"speedup\": %.4f,\n     \"result\": %s}"
          shards
          (r.Experiment.throughput /. base_tp)
          (Experiment.to_json r))
      scaling
  in
  let ablation_json =
    List.map
      (fun (cross_pct, r) ->
        Printf.sprintf
          "    {\"shards\": 4, \"multi_pct\": 20, \"cross_pct\": %d, \
           \"relative\": %.4f,\n     \"result\": %s}"
          cross_pct
          (r.Experiment.throughput /. abl_base)
          (Experiment.to_json r))
      ablation
  in
  write_validated path
    (Printf.sprintf
       "{\n  \"schema_version\": %d,\n\
       \  \"config\": {\"workers\": %d, \"read_pct\": %d, \"op_batch\": %d, \
        \"key_range\": %d, \"log_size\": %d, \"epsilon\": %d, \
        \"duration_ns\": %d},\n\
       \  \"scaling\": [\n%s\n  ],\n\
       \  \"cross_shard\": [\n%s\n  ]\n}\n"
       Telemetry.Json.schema_version workers shardscale_read_pct
       shardscale_op_batch keys scale.Figures.log_size
       scale.Figures.eps_large scale.Figures.duration_ns
       (String.concat ",\n" scaling_json)
       (String.concat ",\n" ablation_json));
  Printf.printf "artifact: %s\n%!" path;
  let speedup4 =
    match List.assoc_opt 4 scaling with
    | Some r -> r.Experiment.throughput /. base_tp
    | None -> 0.0
  in
  if speedup4 < 3.0 then begin
    Printf.eprintf
      "bench shardscale FAILED: 4 shards only %.2fx over 1 shard (need 3x)\n"
      speedup4;
    exit 1
  end

let () =
  let scale = Figures.scale_of_env () in
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" with
  | "all" -> Figures.all scale
  | "table1" -> Figures.table1 ()
  | "fig1" -> Figures.fig1 scale
  | "fig2" -> Figures.fig2 scale
  | "fig3" -> Figures.fig3 scale
  | "fig4" -> Figures.fig4 scale
  | "fig5" -> Figures.fig5 scale
  | "fig6" -> Figures.fig6 scale
  | "ablation" -> Figures.ablation scale
  | "flushstats" -> Figures.flushstats scale
  | "micro" -> run_micro ()
  | "smoke" ->
    run_smoke (if Array.length Sys.argv > 2 then Sys.argv.(2) else "bench-smoke.json")
  | "persistgain" ->
    run_persistgain
      (if Array.length Sys.argv > 2 then Sys.argv.(2) else "bench-persistgain.json")
      (if Array.length Sys.argv > 3 then Some Sys.argv.(3) else None)
  | "readscale" ->
    run_readscale
      (if Array.length Sys.argv > 2 then Sys.argv.(2) else "bench-readscale.json")
  | "loadcurve" ->
    run_loadcurve
      (if Array.length Sys.argv > 2 then Sys.argv.(2) else "bench-loadcurve.json")
  | "shardscale" ->
    run_shardscale
      (if Array.length Sys.argv > 2 then Sys.argv.(2) else "bench-shardscale.json")
  | other ->
    Printf.eprintf
      "unknown command %S (expected \
       all|table1|fig1..fig6|ablation|flushstats|micro|smoke|persistgain|readscale|loadcurve|shardscale)\n"
      other;
    exit 1
