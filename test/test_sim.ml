(* Tests for the discrete-event simulator substrate. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- RNG ---- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 7L and b = Sim.Rng.create 7L in
  for _ = 1 to 100 do
    check "same stream" (Sim.Rng.int a 1_000_000) (Sim.Rng.int b 1_000_000)
  done

let test_rng_bounds () =
  let r = Sim.Rng.create 3L in
  for _ = 1 to 10_000 do
    let x = Sim.Rng.int r 17 in
    check_bool "in range" true (x >= 0 && x < 17)
  done

let test_rng_float_range () =
  let r = Sim.Rng.create 11L in
  for _ = 1 to 10_000 do
    let f = Sim.Rng.float r in
    check_bool "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_split_independent () =
  let parent = Sim.Rng.create 5L in
  let child = Sim.Rng.split parent in
  let child_vals = List.init 10 (fun _ -> Sim.Rng.int child 1000) in
  let parent_vals = List.init 10 (fun _ -> Sim.Rng.int parent 1000) in
  check_bool "streams differ" true (child_vals <> parent_vals)

(* ---- Topology ---- *)

let test_topology_place () =
  let topo = Sim.Topology.{ sockets = 2; cores_per_socket = 4 } in
  Alcotest.(check (pair int int)) "worker 0" (0, 0) (Sim.Topology.place topo 0);
  Alcotest.(check (pair int int)) "worker 3" (0, 3) (Sim.Topology.place topo 3);
  Alcotest.(check (pair int int)) "worker 4" (1, 0) (Sim.Topology.place topo 4);
  Alcotest.(check (pair int int)) "worker 7" (1, 3) (Sim.Topology.place topo 7);
  Alcotest.check_raises "out of range" (Invalid_argument
    "Topology.place: worker index out of range")
    (fun () -> ignore (Sim.Topology.place topo 8))

(* ---- scheduler ---- *)

let test_single_fiber_result () =
  let r = Sim.run_one (fun () -> 41 + 1) in
  check "result" 42 r

let test_tick_advances_clock () =
  let elapsed =
    Sim.run_one (fun () ->
        let t0 = Sim.now () in
        Sim.tick 500;
        Sim.tick 250;
        Sim.now () - t0)
  in
  check "750ns charged" 750 elapsed

let test_fibers_interleave_by_time () =
  (* Fiber A does expensive ticks, fiber B cheap ones: B's events should be
     timestamped consistently with simulated order, i.e. B finishes first. *)
  let order = ref [] in
  let sim = Sim.create Sim.Topology.default in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         for _ = 1 to 10 do Sim.tick 1000 done;
         order := `A :: !order));
  ignore
    (Sim.spawn sim ~socket:1 (fun () ->
         for _ = 1 to 10 do Sim.tick 10 done;
         order := `B :: !order));
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  Alcotest.(check bool) "B finished before A" true (!order = [ `A; `B ])

let test_run_until_cuts () =
  (* two fibers so the causality rule forces interleaving (a lone fiber
     never yields and cannot be cut) *)
  let progressed = ref 0 in
  let sim = Sim.create Sim.Topology.default in
  for _ = 1 to 2 do
    ignore
      (Sim.spawn sim ~socket:0 (fun () ->
           for _ = 1 to 1000 do
             Sim.tick 100;
             incr progressed
           done))
  done;
  (match Sim.run ~until:5_000 sim () with
   | `Cut _ -> ()
   | `Done -> Alcotest.fail "expected a cut");
  (* Both fibers were abandoned mid-run around the 5µs mark. *)
  check_bool "partial progress" true (!progressed > 0 && !progressed < 2000)

let test_spawn_inherits_clock () =
  let child_start = ref (-1) in
  let sim = Sim.create Sim.Topology.default in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         Sim.tick 1234;
         ignore
           (Sim.spawn sim ~socket:0 (fun () -> child_start := Sim.now ()))));
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  check "child starts at parent's clock" 1234 !child_start

let test_sleep_until () =
  let t =
    Sim.run_one (fun () ->
        Sim.tick 10;
        Sim.sleep_until 9_999;
        Sim.now ())
  in
  check "slept" 9_999 t

let test_determinism_across_runs () =
  let run () =
    let log = ref [] in
    let sim = Sim.create ~seed:99L Sim.Topology.default in
    for i = 0 to 3 do
      ignore
        (Sim.spawn sim ~socket:(i mod 2) (fun () ->
             for j = 1 to 5 do
               Sim.tick (50 + (17 * i));
               log := (i, j, Sim.now ()) :: !log
             done))
    done;
    (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
    !log
  in
  Alcotest.(check bool) "identical traces" true (run () = run ())

(* ---- ready heap and dispatch ---- *)

let test_many_ready_fibers () =
  (* more ready fibers than half the heap's capacity: popping must compare
     only children that lie within the heap (it used to read past the
     array at ~1,000 fibers and fail with "index out of bounds") *)
  List.iter
    (fun n ->
      let finished = ref 0 in
      let sim = Sim.create Sim.Topology.default in
      for _ = 1 to n do
        ignore
          (Sim.spawn sim ~socket:0 (fun () ->
               for _ = 1 to 5 do Sim.tick 10 done;
               incr finished))
      done;
      (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
      check (Printf.sprintf "%d fibers finished" n) n !finished)
    [ 1_000; 3_000 ]

let test_equal_wake_yield_order () =
  (* yields that leave the clock unchanged tie on wake time: the fibers
     resume in the order they yielded, round after round *)
  let log = ref [] in
  let sim = Sim.create Sim.Topology.default in
  for i = 0 to 3 do
    ignore
      (Sim.spawn sim ~socket:0 (fun () ->
           for _ = 1 to 3 do
             log := i :: !log;
             Sim.yield ()
           done))
  done;
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  Alcotest.(check (list int)) "round-robin in yield order"
    [ 0; 1; 2; 3; 0; 1; 2; 3; 0; 1; 2; 3 ]
    (List.rev !log)

(* a controlled sim whose chooser always runs the highest runnable fid,
   recording every candidate set it is handed *)
let test_chooser_sorted_fids () =
  let sets = ref [] in
  let sim = Sim.create Sim.Topology.default in
  Sim.set_chooser sim (fun fids ->
      sets := Array.to_list fids :: !sets;
      fids.(Array.length fids - 1));
  for _ = 0 to 2 do
    ignore
      (Sim.spawn sim ~socket:0 (fun () ->
           Sim.yield ();
           (* spawned mid-run: joins the candidate sets from here on *)
           Sim.spawn_here ~socket:0 (fun () -> Sim.yield ());
           Sim.yield ()))
  done;
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  let sets = List.rev !sets in
  List.iter
    (fun set ->
      check_bool "strictly increasing fids" true
        (List.sort_uniq compare set = set))
    sets;
  check_bool "a fiber spawned mid-run is a candidate" true
    (List.exists (List.mem 5) sets)

let test_chooser_non_runnable () =
  let sim = Sim.create Sim.Topology.default in
  Sim.set_chooser sim (fun _ -> 7);
  ignore (Sim.spawn sim ~socket:0 (fun () -> ()));
  Alcotest.check_raises "non-runnable pick"
    (Failure "Sim.run: chooser picked a non-runnable fid") (fun () ->
      ignore (Sim.run sim ()))

(* A controlled sim whose root fiber (fid 0) does [prefix] memory writes,
   spawns two workers, then installs a chooser that alternates between the
   runnable fibers; every worker does [ops] reads. Returns the chooser's
   call count and the order in which fibers performed their accesses. *)
let controlled_run ~prefix ~ops =
  let sim = Sim.create Sim.Topology.default in
  Sim.set_controlled sim;
  let mem = Nvm.Memory.make ~bg_period:0 () in
  let calls = ref 0 and order = ref [] in
  let chooser fids =
    incr calls;
    fids.(!calls mod Array.length fids)
  in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         let aid = Nvm.Memory.new_arena mem ~kind:Nvm.Memory.Dram ~home:0 in
         let addr i = Nvm.Memory.addr_of ~aid ~offset:(8 + (i land 1023)) in
         for w = 1 to 2 do
           Sim.spawn_here ~socket:0 (fun () ->
               for i = 1 to ops do
                 ignore (Nvm.Memory.read mem (addr i));
                 order := w :: !order
               done)
         done;
         for i = 1 to prefix do
           Nvm.Memory.write mem (addr i) i;
           order := 0 :: !order
         done;
         Sim.set_chooser sim chooser;
         Nvm.Memory.write mem (addr 0) 1;
         order := 0 :: !order));
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  (!calls, List.rev !order)

let test_prefix_not_scheduling_points () =
  let calls, order = controlled_run ~prefix:50 ~ops:3 in
  (* the root runs its whole prefix although the workers are runnable:
     before the chooser, memory ops do not yield and fid 0 is lowest *)
  Alcotest.(check (list int)) "prefix runs straight through"
    (List.init 50 (fun _ -> 0))
    (List.filteri (fun i _ -> i < 50) order);
  (* from the installation on, every memory op is a choice point: the
     chooser is called once per access (7) and once per fiber finish that
     leaves others runnable, never for the 50 prefix writes *)
  check_bool "chooser called only after installation" true
    (calls >= 7 && calls < 20);
  check "every access ran" 57 (List.length order)

let test_controlled_sims_per_domain () =
  (* the dispatch mode lives in each Sim.t: controlled sims on two domains,
     each starting or installing its chooser while another is in its
     prefix or its explored phase, must each count exactly their own
     choice points — one per access after the installation *)
  let ops = 20_000 in
  let tasks =
    Array.init 4 (fun i () -> controlled_run ~prefix:(20_000 * (i + 1)) ~ops)
  in
  let serial = Harness.Campaign.run ~j:1 tasks in
  let parallel = Harness.Campaign.run ~j:2 tasks in
  check_bool "-j 2 equals -j 1" true (serial = parallel);
  Array.iteri
    (fun i (calls, order) ->
      check (Printf.sprintf "task %d accesses" i)
        ((20_000 * (i + 1)) + (2 * ops) + 1)
        (List.length order);
      check_bool (Printf.sprintf "task %d: a choice point per explored access" i)
        true
        (calls >= 2 * ops && calls < (2 * ops) + 100))
    parallel

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        ] );
      ( "topology",
        [ Alcotest.test_case "placement" `Quick test_topology_place ] );
      ( "scheduler",
        [
          Alcotest.test_case "single fiber result" `Quick test_single_fiber_result;
          Alcotest.test_case "tick advances clock" `Quick test_tick_advances_clock;
          Alcotest.test_case "interleave by time" `Quick test_fibers_interleave_by_time;
          Alcotest.test_case "run until cuts" `Quick test_run_until_cuts;
          Alcotest.test_case "spawn inherits clock" `Quick test_spawn_inherits_clock;
          Alcotest.test_case "sleep until" `Quick test_sleep_until;
          Alcotest.test_case "determinism" `Quick test_determinism_across_runs;
          Alcotest.test_case "many ready fibers" `Quick test_many_ready_fibers;
          Alcotest.test_case "equal wake yield order" `Quick
            test_equal_wake_yield_order;
        ] );
      ( "controlled",
        [
          Alcotest.test_case "chooser sees sorted fids" `Quick
            test_chooser_sorted_fids;
          Alcotest.test_case "non-runnable pick fails" `Quick
            test_chooser_non_runnable;
          Alcotest.test_case "prefix is not scheduling points" `Quick
            test_prefix_not_scheduling_points;
          Alcotest.test_case "independent sims per domain" `Quick
            test_controlled_sims_per_domain;
        ] );
    ]
