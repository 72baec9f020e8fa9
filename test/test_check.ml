(* Tests for the linearizability checker, and linearizability tests of
   every concurrent system in the repository (including their read-only
   operations, which the log-trace checks cannot see). *)

open Nvm
open Prep

module H = Seqds.Hashmap
module Lin = Check.Linearizability.Make (H.Model)

let check_bool = Alcotest.(check bool)

let ev ~thread ~t_inv ~t_resp ~op ~args ~resp =
  { Check.History.thread; t_inv; t_resp; op; args; resp }

(* ---- checker unit tests on hand-written histories ---- *)

let test_sequential_history_linearizable () =
  let h =
    [
      ev ~thread:0 ~t_inv:0 ~t_resp:10 ~op:H.op_insert ~args:[| 1; 5 |] ~resp:1;
      ev ~thread:0 ~t_inv:20 ~t_resp:30 ~op:H.op_get ~args:[| 1 |] ~resp:5;
    ]
  in
  check_bool "linearizable" true (Lin.check h = Lin.Linearizable)

let test_stale_read_not_linearizable () =
  (* insert completes strictly before the get begins, yet the get misses
     the key: not linearizable *)
  let h =
    [
      ev ~thread:0 ~t_inv:0 ~t_resp:10 ~op:H.op_insert ~args:[| 1; 5 |] ~resp:1;
      ev ~thread:1 ~t_inv:20 ~t_resp:30 ~op:H.op_get ~args:[| 1 |] ~resp:(-1);
    ]
  in
  check_bool "not linearizable" true (Lin.check h = Lin.Not_linearizable)

let test_concurrent_read_either_value_ok () =
  (* the get overlaps the insert, so both -1 and 5 are legal *)
  List.iter
    (fun resp ->
      let h =
        [
          ev ~thread:0 ~t_inv:0 ~t_resp:100 ~op:H.op_insert ~args:[| 1; 5 |] ~resp:1;
          ev ~thread:1 ~t_inv:50 ~t_resp:60 ~op:H.op_get ~args:[| 1 |] ~resp;
        ]
      in
      check_bool
        (Printf.sprintf "resp %d accepted" resp)
        true
        (Lin.check h = Lin.Linearizable))
    [ -1; 5 ]

let test_double_insert_responses () =
  (* two concurrent inserts of the same fresh key: exactly one may return
     "new" twice? No — one must see the other: (1,0) or (0,1) in some
     order, but (1,1) only if ... both claim new: impossible. *)
  let h resp_a resp_b =
    [
      ev ~thread:0 ~t_inv:0 ~t_resp:100 ~op:H.op_insert ~args:[| 7; 1 |] ~resp:resp_a;
      ev ~thread:1 ~t_inv:10 ~t_resp:90 ~op:H.op_insert ~args:[| 7; 2 |] ~resp:resp_b;
    ]
  in
  check_bool "1/0 fine" true (Lin.check (h 1 0) = Lin.Linearizable);
  check_bool "0/1 fine" true (Lin.check (h 0 1) = Lin.Linearizable);
  check_bool "1/1 impossible" true (Lin.check (h 1 1) = Lin.Not_linearizable);
  check_bool "0/0 impossible" true (Lin.check (h 0 0) = Lin.Not_linearizable)

let test_prefill_respected () =
  let h =
    [ ev ~thread:0 ~t_inv:0 ~t_resp:10 ~op:H.op_get ~args:[| 3 |] ~resp:33 ]
  in
  check_bool "without prefill: not linearizable" true
    (Lin.check h = Lin.Not_linearizable);
  check_bool "with prefill: linearizable" true
    (Lin.check_with_prefill ~prefill:[ (H.op_insert, [| 3; 33 |]) ] h
     = Lin.Linearizable)

let test_large_history_beyond_int_mask () =
  (* regression: the checker used to cap histories at 62 ops (int-mask
     limit). 70 sequential ops must now pass, and the same history with a
     stale read appended must still be rejected. *)
  let n = 70 in
  let ops =
    List.init n (fun i ->
        ev ~thread:0 ~t_inv:(i * 10)
          ~t_resp:((i * 10) + 5)
          ~op:H.op_insert ~args:[| i; i |] ~resp:1)
  in
  check_bool "70-op history linearizable" true (Lin.check ops = Lin.Linearizable);
  let stale =
    ops
    @ [
        ev ~thread:1
          ~t_inv:(n * 10)
          ~t_resp:((n * 10) + 5)
          ~op:H.op_get ~args:[| 0 |] ~resp:(-1);
      ]
  in
  check_bool "stale read at index 70 rejected" true
    (Lin.check stale = Lin.Not_linearizable)

(* ---- recorded histories from the real systems ---- *)

let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 }

(* Run [workers] fibers doing [ops_each] mixed ops over a tiny key space
   (to force conflicts), recording a history; returns the history. *)
let record_history ~seed ~workers ~ops_each ~make_exec =
  let sim = Sim.create ~seed topology in
  let mem = Memory.make ~bg_period:10_000 () in
  let history = Check.History.create () in
  let done_count = ref 0 in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         let roots = Roots.make mem in
         let exec_for, teardown = make_exec mem roots in
         for w = 0 to workers - 1 do
           let socket, core = Sim.Topology.place topology w in
           ignore
             (Sim.spawn sim ~socket ~core (fun () ->
                  let exec = exec_for () in
                  let rng = Sim.fiber_rng () in
                  for _ = 1 to ops_each do
                    let k = Sim.Rng.int rng 3 in
                    let op, args =
                      match Sim.Rng.int rng 4 with
                      | 0 -> (H.op_insert, [| k; Sim.Rng.int rng 100 |])
                      | 1 -> (H.op_remove, [| k |])
                      | _ -> (H.op_get, [| k |])
                    in
                    ignore (Check.History.wrap history ~thread:w exec ~op ~args)
                  done;
                  incr done_count))
         done;
         while !done_count < workers do
           Sim.tick 10_000
         done;
         teardown ()));
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  Check.History.events history

module Uc = Prep_uc.Make (Seqds.Hashmap)

let prep_exec mode mem roots =
  let cfg = Config.make ~mode ~log_size:256 ~epsilon:64 ~workers:6 () in
  let uc = Uc.create mem roots cfg in
  Uc.start_persistence uc;
  ( (fun () ->
      Uc.register_worker uc;
      fun ~op ~args -> Uc.execute uc ~op ~args),
    fun () -> Uc.stop uc )

let linearizable_under mode ~seeds =
  List.iter
    (fun seed ->
      let h =
        record_history ~seed ~workers:6 ~ops_each:8
          ~make_exec:(prep_exec mode)
      in
      check_bool
        (Printf.sprintf "history (seed %Ld) linearizable" seed)
        true
        (Lin.check h = Lin.Linearizable))
    seeds

let test_prep_v_linearizable () =
  linearizable_under Config.Volatile ~seeds:[ 1L; 2L; 3L; 4L; 5L ]

let test_prep_buffered_linearizable () =
  linearizable_under Config.Buffered ~seeds:[ 6L; 7L; 8L ]

let test_prep_durable_linearizable () =
  linearizable_under Config.Durable ~seeds:[ 9L; 10L; 11L ]

module Gl = Gl_uc.Make (Seqds.Hashmap)

let test_gl_linearizable () =
  List.iter
    (fun seed ->
      let h =
        record_history ~seed ~workers:6 ~ops_each:8 ~make_exec:(fun mem _roots ->
            let gl = Gl.create mem in
            ( (fun () ->
                Gl.register_worker gl;
                fun ~op ~args -> Gl.execute gl ~op ~args),
              ignore ))
      in
      check_bool "gl history linearizable" true (Lin.check h = Lin.Linearizable))
    [ 21L; 22L; 23L ]

module Cx = Cx_puc.Make (Seqds.Hashmap)

let test_cx_linearizable () =
  List.iter
    (fun seed ->
      let h =
        record_history ~seed ~workers:4 ~ops_each:6 ~make_exec:(fun mem roots ->
            let cx = Cx.create mem roots ~workers:4 in
            ( (fun () ->
                Cx.register_worker cx;
                fun ~op ~args -> Cx.execute cx ~op ~args),
              ignore ))
      in
      check_bool "cx history linearizable" true (Lin.check h = Lin.Linearizable))
    [ 31L; 32L; 33L ]

let test_soft_linearizable () =
  List.iter
    (fun seed ->
      let h =
        record_history ~seed ~workers:6 ~ops_each:8 ~make_exec:(fun mem _roots ->
            let s = Soft_hash.create ~nbuckets:8 mem in
            ( (fun () ->
                Soft_hash.register_worker s;
                fun ~op ~args -> Soft_hash.execute s ~op ~args),
              ignore ))
      in
      check_bool "soft history linearizable" true
        (Lin.check h = Lin.Linearizable))
    [ 41L; 42L; 43L ]

let () =
  Alcotest.run "check"
    [
      ( "checker",
        [
          Alcotest.test_case "sequential history" `Quick
            test_sequential_history_linearizable;
          Alcotest.test_case "stale read rejected" `Quick
            test_stale_read_not_linearizable;
          Alcotest.test_case "concurrent read flexible" `Quick
            test_concurrent_read_either_value_ok;
          Alcotest.test_case "double insert responses" `Quick
            test_double_insert_responses;
          Alcotest.test_case "prefill respected" `Quick test_prefill_respected;
          Alcotest.test_case "history beyond 62 ops" `Quick
            test_large_history_beyond_int_mask;
        ] );
      ( "systems",
        [
          Alcotest.test_case "PREP-V linearizable" `Quick test_prep_v_linearizable;
          Alcotest.test_case "PREP-Buffered linearizable" `Quick
            test_prep_buffered_linearizable;
          Alcotest.test_case "PREP-Durable linearizable" `Quick
            test_prep_durable_linearizable;
          Alcotest.test_case "GL linearizable" `Quick test_gl_linearizable;
          Alcotest.test_case "CX linearizable" `Quick test_cx_linearizable;
          Alcotest.test_case "SOFT linearizable" `Quick test_soft_linearizable;
        ] );
    ]
