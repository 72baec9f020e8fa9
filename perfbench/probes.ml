(** Host cost of the public simulator and memory primitives: each is
    called in a loop inside [Sim.run_one], with telemetry off and then
    on, and timed in host CPU ns per call. *)

open Nvm

let iters = 200_000
let lines = 4096 (* distinct cache lines touched, round-robin *)

let per_call f =
  let c0 = Sys.time () in
  for i = 0 to iters - 1 do
    f i
  done;
  (Sys.time () -. c0) *. 1e9 /. float_of_int iters

let measure () =
  Sim.run_one (fun () ->
      let m = Memory.make ~bg_period:0 () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let addr i = Memory.addr_of ~aid ~offset:(i mod lines * 8) in
      let read = per_call (fun i -> ignore (Memory.read m (addr i))) in
      let write = per_call (fun i -> Memory.write m (addr i) i) in
      let cas =
        per_call (fun i ->
            ignore (Memory.cas m (addr i) ~expected:i ~desired:(i + 1)))
      in
      let sfence = per_call (fun _ -> Memory.sfence ~site:Persist.Log_fence m) in
      (* a fence every 64 write-backs keeps the write-pending queue short;
         its measured cost is taken back out *)
      let clwb_and_fences =
        per_call (fun i ->
            Memory.clwb ~site:Persist.Log_persist_entry m (addr i);
            if i land 63 = 63 then Memory.sfence ~site:Persist.Log_fence m)
      in
      let clwb = clwb_and_fences -. (sfence /. 64.0) in
      let yield = per_call (fun _ -> Sim.yield ()) in
      [ ("nvm.read_host_ns", read); ("nvm.write_host_ns", write);
        ("nvm.cas_host_ns", cas); ("nvm.clwb_host_ns", clwb);
        ("nvm.sfence_host_ns", sfence); ("sim.yield_host_ns", yield) ])

(* the fastest of [repeats] measurements, per probe: host interference
   only ever adds time *)
let repeats = 5

let fastest m =
  let runs = List.init repeats (fun _ -> m ()) in
  List.map
    (fun (k, _) ->
      (k, List.fold_left min infinity (List.map (List.assoc k) runs)))
    (List.hd runs)

(** Every probe with telemetry off, then with a live registry (suffix
    [_traced]). *)
let run () =
  let off = fastest measure in
  let on =
    fastest (fun () ->
        Telemetry.Registry.with_current (Telemetry.Registry.create ()) measure)
  in
  off @ List.map (fun (k, v) -> (k ^ "_traced", v)) on
