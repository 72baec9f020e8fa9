(* The repository benchmark.

     bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
     bash perfbench/run.sh --workload all --seed N   # every workload, both modes
     bash perfbench/run.sh --write-spec BENCHMARK.json

   A run makes, in each of Spec.rounds rounds, the same simulated passes
   of the workload's load and one exhaustive exploration of its
   verification scope. --trace 0 reports the end-to-end metrics with
   tracing off; --trace 1 runs one pass untraced and traced, twice, and
   reports the per-layer metrics.
   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. *)

open Perfbench_lib

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0
let sum_by f = List.fold_left (fun acc x -> acc + f x) 0
let pass_seed seed p = Int64.of_int ((seed * 1000) + p)
let heap_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* ---- the exploration ---- *)

type exploration = {
  ex : Explorer.result option;
  ex_failures : string list;
}

(* run from the repository root, which run.sh makes the working directory *)
let cli = "_build/default/bin/prep_cli.exe"
let out_dir = "perfbench/_out"

let explore (w : Spec.workload) =
  match Explorer.run ~cli ~out_dir ~args:(Spec.explore_args w.scope) with
  | r ->
    let bound =
      Spec.loss_bound w.load.mode ~epsilon:w.scope.s_epsilon
        ~cores:w.scope.s_cores
    in
    { ex = Some r; ex_failures = Explorer.failures r ~bound }
  | exception e ->
    { ex = None;
      ex_failures = [ "explorer did not start: " ^ Printexc.to_string e ] }

let ex_stat e name =
  match e.ex with
  | Some r -> Option.value (Explorer.stat r name) ~default:0
  | None -> 0

let ex_host e = match e.ex with Some r -> r.host_s | None -> 0.0

(* the explorer's unit of work is a schedule *)
let ex_attempted e = max 1 (ex_stat e "schedules")

(* ---- simulated-results digest: a record, not a gate ---- *)

let explore_counts e =
  List.map
    (fun k -> (k, ex_stat e k))
    [ "schedules"; "steps"; "states"; "recoveries"; "frontiers"; "max_loss" ]

let digest (passes : Simrun.pass list) extra =
  let b = Buffer.create 65536 in
  List.iter
    (fun (p : Simrun.pass) ->
      Printf.bprintf b
        "seed=%Ld attempted=%d updates=%d window=%d recovery=%d completed=%d \
         applied=%d lost=%d\n"
        p.seed p.attempted p.updates p.window_ns p.recovery_ns p.completed
        p.applied p.lost;
      Array.iter (fun v -> Printf.bprintf b "%d," v) p.lat;
      Buffer.add_char b '\n';
      List.iter (fun (k, v) -> Printf.bprintf b "%s=%d\n" k v) p.counters)
    passes;
  List.iter (fun (k, v) -> Printf.bprintf b "%s=%d\n" k v) extra;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- output ---- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~failures ~attempted ~failed defs metrics =
  let field (m : Spec.metric) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
      (Spec.json_string m.m_name)
      (json_num (List.assoc m.m_name metrics))
      (Spec.json_string m.m_unit)
  in
  (match failures with
   | [] -> print_endline "checks: all passed"
   | fs -> List.iter (Printf.printf "check FAILED: %s\n") fs);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failures = []) attempted failed
    (String.concat ", " (List.map field defs))

let pass_failures (p : Simrun.pass) =
  List.map (Printf.sprintf "pass seed %Ld: %s" p.seed) p.failures

(* the simulated results of two runs of one pass must be identical *)
let same_sim (a : Simrun.pass) (b : Simrun.pass) =
  a.lat = b.lat && a.recovery_ns = b.recovery_ns && a.applied = b.applied
  && a.lost = b.lost && a.counters = b.counters

let fmin = List.fold_left min infinity

(* ---- end-to-end (tracing off) ---- *)

let end_to_end (w : Spec.workload) ~seed ~seconds =
  let npasses = Spec.passes w ~seconds in
  let l = w.load in
  Printf.printf
    "perfbench %s seed %d: %d round(s) of %d pass(es) x %.1f ms simulated \
     window (%d callers on %dx%d cores) and one %s exploration\n%!"
    w.name seed Spec.rounds npasses
    (float_of_int l.window_ns /. 1e6)
    l.workers l.sockets l.cores w.scope.variant;
  let round () =
    ( List.init npasses (fun p -> Simrun.run l ~seed:(pass_seed seed p)),
      explore w )
  in
  let passes, e = round () in
  (* later rounds must reproduce round 1's simulated results; only their
     host times are kept *)
  let later =
    List.init (Spec.rounds - 1) (fun _ ->
        let ps, e' = round () in
        let same = List.for_all2 same_sim passes ps in
        (List.map (fun (p : Simrun.pass) -> { p with lat = [||] }) ps, e', same))
  in
  let rounds = (passes, e, true) :: later in
  let all_passes = List.concat_map (fun (ps, _, _) -> ps) rounds in
  let explorations = List.map (fun (_, e, _) -> e) rounds in
  let lat = Array.concat (List.map (fun (p : Simrun.pass) -> p.lat) passes) in
  Array.sort compare lat;
  let n = Array.length lat in
  let us = function
    | Some ns -> ns /. 1e3
    | None ->
      Printf.eprintf "perfbench: %d latency samples are too few\n" n;
      exit 2
  in
  let pct q = us (Option.map float_of_int (Pct.of_sorted q lat)) in
  let window = sum_by (fun (p : Simrun.pass) -> p.window_ns) passes in
  let host (p : Simrun.pass) =
    Array.fold_left ( +. ) 0.0 p.chunks +. p.recover_host_s
  in
  (* per pass, each chunk's fastest round and the fastest recovery (chunk
     counts differ only between rounds that diverged, which fails the run) *)
  let fastest (a : Simrun.pass) (b : Simrun.pass) =
    if Array.length a.chunks <> Array.length b.chunks then a
    else
      { a with
        chunks = Array.map2 min a.chunks b.chunks;
        recover_host_s = min a.recover_host_s b.recover_host_s }
  in
  let best =
    List.fold_left
      (fun acc (ps, _, _) -> List.map2 fastest acc ps)
      passes later
  in
  let per_round f xs =
    String.concat ", " (List.map (fun x -> Printf.sprintf "%.3f" (f x)) xs)
  in
  let setups = List.map (fun (p : Simrun.pass) -> p.setup_s) all_passes in
  let metrics =
    [
      ("sim_throughput_mops", float_of_int n /. float_of_int window *. 1e3);
      ("sim_latency_iqm_us", us (Pct.iqm lat));
      ("sim_latency_p999_us", pct Pct.p999);
      ( "recovery_sim_ms",
        median
          (List.map
             (fun (p : Simrun.pass) -> float_of_int p.recovery_ns /. 1e6)
             passes) );
      ( "host_s",
        sum (List.map host best) +. fmin (List.map ex_host explorations) );
      ("host_live_heap_mb", heap_mb (List.hd passes).live_words);
      ("setup_s", median setups);
    ]
  in
  let failures =
    List.concat_map pass_failures all_passes
    @ List.concat_map (fun x -> x.ex_failures) explorations
    @ (if List.for_all (fun (_, _, same) -> same) rounds then []
       else [ "a pass's simulated results differ between rounds" ])
    @
    if List.for_all (fun x -> explore_counts x = explore_counts e) explorations
    then []
    else [ "the explorer's counts differ between rounds" ]
  in
  let attempted =
    sum_by (fun (p : Simrun.pass) -> p.attempted) all_passes
    + sum_by ex_attempted explorations
  in
  (* a failed check fails the whole run *)
  let failed = if failures = [] then 0 else attempted in
  let note = function
    | "sim_throughput_mops" ->
      Printf.sprintf "%d ops acknowledged in %.1f simulated ms" n
        (float_of_int window /. 1e6)
    | "sim_latency_iqm_us" ->
      Printf.sprintf "n=%d; exact p50 %.3f us" n (pct Pct.p50)
    | "sim_latency_p999_us" ->
      Printf.sprintf "n=%d, %d beyond" n (n - Pct.rank Pct.p999 ~n)
    | "recovery_sim_ms" -> Printf.sprintf "median of %d recoveries" npasses
    | "host_s" ->
      Printf.sprintf
        "CPU: loaded runs and recoveries, fastest round per %d ops (rounds \
         %s s), plus the fastest exploration of %d schedules (%s s)"
        Simrun.chunk_ops
        (per_round (fun (ps, _, _) -> sum (List.map host ps)) rounds)
        (ex_stat e "schedules")
        (per_round ex_host explorations)
    | "host_live_heap_mb" -> "OCaml live heap at the first pass's power failure"
    | "setup_s" -> Printf.sprintf "median of %d set-ups" (List.length setups)
    | _ -> ""
  in
  List.iter
    (fun (m : Spec.metric) ->
      Printf.printf "  %-22s %14.6f %-7s (%s)\n" m.m_name
        (List.assoc m.m_name metrics) m.m_unit (note m.m_name))
    Spec.end_to_end;
  Printf.printf
    "  %-22s %14d %-7s (acknowledged ops lost by %d power failure(s); bound \
     %d each)\n"
    "lost_ops"
    (sum_by (fun (p : Simrun.pass) -> p.lost) passes)
    "ops" npasses (Simrun.loss_bound l);
  Printf.printf "  %-22s %14.6f %-7s (%d of %d attempted)\n" "ops_failed_pct"
    (100.0 *. float_of_int failed /. float_of_int (max 1 attempted))
    "%" failed attempted;
  Printf.printf "digest %s (simulated results of every pass, explorer counts)\n"
    (digest passes (explore_counts e));
  print_result ~failures ~attempted ~failed Spec.end_to_end metrics

(* ---- per-layer (one pass untraced, the same pass traced) ---- *)

let bench_track = 1_000_000

let per_layer (w : Spec.workload) ~seed =
  let t_start = Unix.gettimeofday () in
  Printf.printf
    "perfbench %s seed %d, traced: one pass untraced and traced, twice; one \
     %s exploration; host probes\n%!"
    w.name seed w.scope.variant;
  let s0 = pass_seed seed 0 in
  let reg = Telemetry.Registry.create ~tracing:true ~sample_events:16 () in
  let untraced = Simrun.run w.load ~seed:s0 in
  let traced = Simrun.run ~telemetry:reg w.load ~seed:s0 in
  (* a second untraced/traced pair, for the overhead's host times only;
     its registry is thrown away *)
  let untraced2 = Simrun.run w.load ~seed:s0 in
  let traced2 =
    Simrun.run ~telemetry:(Telemetry.Registry.create ()) w.load ~seed:s0
  in
  let e = explore w in
  let probes = Probes.run () in
  (* the benchmark's own spans, on a track of their own, in host ns *)
  Telemetry.Registry.name_track reg bench_track "perfbench (host clock)";
  let host_span name (a, b) =
    Telemetry.Registry.push_event reg
      (Telemetry.Registry.Complete
         {
           ev_name = name;
           ev_track = bench_track;
           ev_t0 = int_of_float ((a -. t_start) *. 1e9);
           ev_dur = int_of_float ((b -. a) *. 1e9);
         })
  in
  List.iter
    (fun (label, (p : Simrun.pass)) ->
      List.iter (fun (name, a, b) -> host_span (label ^ name) (a, b)) p.phases)
    [ ("untraced ", untraced); ("traced ", traced) ];
  Option.iter (fun (r : Explorer.result) -> host_span "explorer" r.wall) e.ex;
  let trace_path = Filename.concat out_dir ("trace-" ^ w.name ^ ".json") in
  let snap =
    Option.value traced.snapshot ~default:Telemetry.Registry.empty_snapshot
  in
  let counter = Telemetry.Registry.find_counter snap in
  let span name f =
    match List.assoc_opt name snap.sn_spans with Some s -> f s | None -> 0
  in
  let self name = span name (fun s -> s.ss_self) in
  let count name = span name (fun s -> s.ss_stats.hs_n) in
  (* per-op figures are over every op the traced pass completed *)
  let ops = count "op" in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let per_op name = ratio (counter name) ops in
  let per_host_ns host n = if n = 0 then 0.0 else host *. 1e9 /. float_of_int n in
  let flush_ns =
    sum_by counter
      [ "nvm.clwb_ns"; "nvm.clflush_ns"; "nvm.sfence_ns"; "nvm.wbinvd_ns";
        "nvm.flush_arena_ns" ]
  in
  (* host times: the faster of the two runs of each kind *)
  let faster f (a : Simrun.pass) (b : Simrun.pass) = min (f a) (f b) in
  let run_host (p : Simrun.pass) = p.run_host_s in
  let traced_host = faster run_host traced traced2 in
  let schedules = ex_stat e "schedules" in
  let metrics =
    [
      ("sim.switches_per_op", per_op "sim.switches");
      ("sim.spins_per_op", per_op "sim.spins");
      ( "sim.host_ns_per_switch",
        per_host_ns traced_host (counter "sim.switches") );
      ("nvm.clwb_per_op", per_op "nvm.clwb");
      ("nvm.clflush_per_op", per_op "nvm.clflush");
      ("nvm.sfence_per_op", per_op "nvm.sfence");
      ("nvm.wbinvd", float_of_int (counter "nvm.wbinvd"));
      ("nvm.flush_sim_ns_per_op", ratio flush_ns ops);
      ("nvm.read_per_op", per_op "nvm.read");
      ("nvm.cas_per_op", per_op "nvm.cas");
      ("prep.combine_self_sim_ns_per_op", ratio (self "combine") ops);
      ("prep.catchup_self_sim_ns_per_op", ratio (self "catch-up") ops);
      ("prep.persist_self_sim_ns_per_op", ratio (self "persist") ops);
      ("prep.publish_self_sim_ns_per_op", ratio (self "publish") ops);
      ("prep.op_wait_sim_ns_per_op", ratio (self "op") ops);
      ("prep.updates_per_combine", ratio traced.updates (count "combine"));
      ("prep.ckpt_count", float_of_int (counter "ckpt_count"));
      ("prep.ckpt_sim_ns", float_of_int (counter "ckpt_cost_total"));
      ("prep.log_primary_reads_per_op", per_op "log_primary_reads");
      ("prep.recover_applied_ops", float_of_int untraced.applied);
      ( "prep.recover_host_s",
        faster (fun p -> p.recover_host_s) untraced untraced2 );
      ("prep.lost_ops", float_of_int untraced.lost);
      ("check.schedules", float_of_int schedules);
      ("check.steps", float_of_int (ex_stat e "steps"));
      ("check.states", float_of_int (ex_stat e "states"));
      ("check.recoveries", float_of_int (ex_stat e "recoveries"));
      ("check.frontiers", float_of_int (ex_stat e "frontiers"));
      ("check.host_us_per_schedule", per_host_ns (ex_host e) schedules /. 1e3);
      ("check.host_ns_per_step", per_host_ns (ex_host e) (ex_stat e "steps"));
      ( "check.alloc_words_per_schedule",
        ratio (ex_stat e "allocated_words") schedules );
      ("check.major_gcs", float_of_int (ex_stat e "major_collections"));
      ("check.peak_heap_mb", heap_mb (ex_stat e "top_heap_words"));
      ( "telemetry.overhead_pct",
        100.0 *. ((traced_host /. faster run_host untraced untraced2) -. 1.0) );
    ]
    @ probes
  in
  (* recording must not perturb the simulation: the traced passes have to
     reproduce the untraced ones exactly *)
  let divergence =
    if List.for_all (same_sim untraced) [ traced; untraced2; traced2 ] then []
    else [ "the traced pass diverged from the untraced pass" ]
  in
  let trace_failures =
    match Telemetry.Trace_export.write reg trace_path with
    | Ok () -> []
    | Error errs -> List.map (( ^ ) "trace export: ") errs
  in
  let all = [ untraced; traced; untraced2; traced2 ] in
  let failures =
    List.concat_map pass_failures all @ e.ex_failures @ divergence
    @ trace_failures
  in
  List.iter
    (fun (m : Spec.metric) ->
      Printf.printf "  %-34s %16.4f %s\n" m.m_name
        (List.assoc m.m_name metrics) m.m_unit)
    Spec.per_layer;
  Printf.printf "  per-op figures are over the traced pass's %d ops\n" ops;
  Printf.printf "trace: %s\n" trace_path;
  Printf.printf "digest %s (simulated results and counters of the traced pass)\n"
    (digest [ traced ] (snap.sn_counters @ explore_counts e));
  let attempted =
    sum_by (fun (p : Simrun.pass) -> p.attempted) all + ex_attempted e
  in
  let failed = if failures = [] then 0 else attempted in
  print_result ~failures ~attempted ~failed Spec.per_layer metrics

(* ---- main ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref Spec.run_seconds in
  let trace = ref 0 and write_spec = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  a workload, or all");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  host seconds to measure for");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer metrics");
      ("--write-spec", Arg.Set_string write_spec, "FILE  write BENCHMARK.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !write_spec <> "" then begin
    let oc = open_out_bin !write_spec in
    output_string oc (Spec.benchmark_json ());
    close_out oc;
    exit 0
  end;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let run (w : Spec.workload) trace =
    if trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds
    else per_layer w ~seed:!seed
  in
  match (!workload, Spec.find !workload, !trace) with
  | "all", _, _ -> List.iter (fun w -> run w 0; run w 1) Spec.workloads
  | _, Some w, (0 | 1) -> run w !trace
  | _ ->
    Printf.eprintf "perfbench: need --workload (%s or all) and --trace 0|1\n"
      (String.concat ", "
         (List.map (fun (w : Spec.workload) -> w.name) Spec.workloads));
    exit 2
