(* A persistent key-value store built on PREP-Durable.

   The scenario the paper's introduction motivates: you have a plain
   sequential data structure (here the red-black tree) and want a
   crash-recoverable concurrent service without writing a single flush or
   fence yourself. PREP-Durable guarantees that every acknowledged write
   survives a power failure.

   The example runs a mixed PUT/GET/DELETE workload across both sockets,
   injects a crash, recovers, and audits that every acknowledged PUT or
   DELETE before the crash is reflected in the recovered store.

     dune exec examples/kv_store.exe *)

open Nvm
module Uc = Prep.Prep_uc.Make (Seqds.Rbtree)
module R = Seqds.Rbtree

type ack = { key : int; value : int; deleted : bool }

let () =
  let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 } in
  let sim = Sim.create ~seed:7L topology in
  let mem = Memory.make ~bg_period:5000 () in
  let uc_ref = ref None in
  (* acknowledged writes, recorded on the OCaml side as the "client" *)
  let acked : (int, ack) Hashtbl.t = Hashtbl.create 1024 in
  (* writes in flight when the crash hits: durable linearizability allows
     them to take effect or not, so the audit must accept either outcome *)
  let pending : (int, ack) Hashtbl.t = Hashtbl.create 64 in

  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         let roots = Roots.make mem in
         let cfg =
           Prep.Config.make ~mode:Prep.Config.Durable ~log_size:4096
             ~epsilon:512 ~workers:6 ()
         in
         let uc = Uc.create mem roots cfg in
         uc_ref := Some uc;
         Uc.start_persistence uc;
         for w = 0 to 5 do
           let socket, core = Sim.Topology.place topology w in
           Sim.spawn_here ~socket ~core (fun () ->
               Uc.register_worker uc;
               let rng = Sim.fiber_rng () in
               (* run "forever": the crash will cut us off *)
               for i = 0 to 1_000_000 do
                 let key = (w * 1_000_000) + Sim.Rng.int rng 500 in
                 match Sim.Rng.int rng 10 with
                 | 0 | 1 | 2 | 3 ->
                   let value = i in
                   let a = { key; value; deleted = false } in
                   Hashtbl.replace pending key a;
                   ignore (Uc.execute uc ~op:R.op_insert ~args:[| key; value |]);
                   (* the PUT is acknowledged: durable mode promises it *)
                   Hashtbl.remove pending key;
                   Hashtbl.replace acked key a
                 | 4 ->
                   let a = { key; value = 0; deleted = true } in
                   Hashtbl.replace pending key a;
                   ignore (Uc.execute uc ~op:R.op_remove ~args:[| key |]);
                   Hashtbl.remove pending key;
                   Hashtbl.replace acked key a
                 | _ -> ignore (Uc.execute uc ~op:R.op_get ~args:[| key |])
               done)
         done))
  |> ignore;
  (* run for 4 simulated milliseconds, then pull the plug *)
  (match Sim.run ~until:4_000_000 sim () with
   | `Cut _ -> Printf.printf "power failure with %d acknowledged writes\n"
                 (Hashtbl.length acked)
   | `Done -> failwith "workload ended before the crash");
  Memory.crash mem;
  Context.reset ();

  let sim2 = Sim.create ~seed:8L topology in
  ignore
    (Sim.spawn sim2 ~socket:0 (fun () ->
         let uc, report = Uc.recover (Option.get !uc_ref) in
         Printf.printf "recovery applied %d logged updates (%d lost: must be 0)\n"
           (List.length report.Prep.Prep_uc.applied)
           report.Prep.Prep_uc.lost_completed;
         Uc.register_worker uc;
         Uc.start_persistence uc;
         (* audit every acknowledged write against the recovered store:
            the observed value must match either the last acknowledged
            write or an operation that was in flight at the crash *)
         let violations = ref 0 in
         Hashtbl.iter
           (fun key ack ->
             let got = Uc.execute uc ~op:R.op_get ~args:[| key |] in
             let allowed = [ (if ack.deleted then -1 else ack.value) ] in
             let allowed =
               match Hashtbl.find_opt pending key with
               | Some p -> (if p.deleted then -1 else p.value) :: allowed
               | None -> allowed
             in
             if not (List.mem got allowed) then incr violations)
           acked;
         Printf.printf "audit: %d durability violations across %d acked writes\n"
           !violations (Hashtbl.length acked);
         if !violations > 0 then exit 1;
         Uc.stop uc));
  (match Sim.run sim2 () with
   | `Done -> print_endline "kv_store done: all acknowledged writes survived"
   | `Cut _ -> failwith "unexpected cut")
