(** Render a telemetry snapshot as a simulated-time profile.

    The phase table attributes simulated nanoseconds to named spans:
    [total] is inclusive time (the span and everything nested in it),
    [self] is exclusive time (what remains after subtracting nested
    spans), so the self column sums to exactly the time covered by
    top-level spans — every covered nanosecond is attributed to exactly
    one phase. The four core phases are always shown, even when a system
    never enters one (their zeros are informative: CX-PUC has no combine).

    The coverage line compares that phase total against the wall fiber
    time (the sum over tracks of last-span-end minus first-span-start):
    a healthy instrumented run covers ~100% — anything else means an
    uninstrumented code path is eating simulated time. *)

open Telemetry

let pct num den =
  if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

(* self-times of the spans a snapshot holds, canonical phases first *)
let span_rows (snap : Registry.snapshot) =
  let canonical = Prep.Phases.phase_names in
  let all = snap.Registry.sn_spans in
  let named =
    List.filter_map
      (fun name ->
        match List.assoc_opt name all with
        | Some ss -> Some (name, ss)
        | None ->
          (* a snapshot without spans (counters-only run): show zeros *)
          Some
            ( name,
              Registry.
                {
                  ss_stats =
                    { hs_n = 0; hs_sum = 0; hs_min = 0; hs_max = 0;
                      hs_p50 = 0; hs_p95 = 0; hs_p99 = 0 };
                  ss_self = 0;
                } ))
      canonical
  in
  let rest =
    List.filter (fun (n, _) -> not (List.mem n canonical)) all
  in
  named @ rest

(** The simulated-ns phase total: the self-times of every span, which by
    construction equals the time covered by top-level spans. *)
let phase_total (snap : Registry.snapshot) =
  List.fold_left
    (fun acc (_, ss) -> acc + ss.Registry.ss_self)
    0 (span_rows snap)

let render_phase_table (snap : Registry.snapshot) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-12s %10s %14s %14s %6s %10s %10s %10s\n" "phase"
       "count" "total-ns" "self-ns" "self%" "p50-ns" "p95-ns" "p99-ns");
  let rows = span_rows snap in
  let total_self = phase_total snap in
  List.iter
    (fun (name, ss) ->
      let st = ss.Registry.ss_stats in
      Buffer.add_string b
        (Printf.sprintf "%-12s %10d %14d %14d %5.1f%% %10d %10d %10d\n" name
           st.Registry.hs_n st.Registry.hs_sum ss.Registry.ss_self
           (pct ss.Registry.ss_self total_self)
           st.Registry.hs_p50 st.Registry.hs_p95 st.Registry.hs_p99))
    rows;
  let wall = snap.Registry.sn_track_extent in
  Buffer.add_string b
    (Printf.sprintf
       "phase total: %d ns across %d tracks = %.1f%% of %d ns wall fiber time\n"
       total_self snap.Registry.sn_tracks
       (pct total_self wall)
       wall);
  Buffer.contents b

(* ---- per-site flush/fence table ----

   [Nvm.Memory] attributes every persistence primitive to a typed call
   site ([Nvm.Persist.site]) through counters named "nvm.<metric>@<site>".
   This folds them into one row per (site, primitive): instructions
   actually emitted (with their simulated-ns share), instructions elided
   by the persistency policy (including clflush->clwb downgrades and
   deferred fences), and instructions elided by the FliT clean-line
   tracking. *)

type site_row = {
  mutable sr_emitted : int;
  mutable sr_ns : int;
  mutable sr_policy : int;  (* policy-elided + downgraded + deferred *)
  mutable sr_flit : int;
}

(* the primitive whose row a per-site metric belongs to, and its column *)
let classify metric =
  let strip suffix =
    if String.ends_with ~suffix metric then
      Some (String.sub metric 0 (String.length metric - String.length suffix))
    else None
  in
  match (metric, strip "_ns", strip "_flit_elided", strip "_policy_elided") with
  | "clflush_downgraded", _, _, _ -> ("clflush", `Policy)
  | "sfence_deferred", _, _, _ -> ("sfence", `Policy)
  | _, Some prim, _, _ -> (prim, `Ns)
  | _, _, Some prim, _ -> (prim, `Flit)
  | _, _, _, Some prim -> (prim, `Policy)
  | _ -> (metric, `Emitted)

let site_rows (snap : Registry.snapshot) =
  let tbl = Hashtbl.create 32 in
  let row site prim =
    let key = (Nvm.Persist.to_string site, prim) in
    match Hashtbl.find_opt tbl key with
    | Some r -> r
    | None ->
      let r = { sr_emitted = 0; sr_ns = 0; sr_policy = 0; sr_flit = 0 } in
      Hashtbl.replace tbl key r;
      r
  in
  List.iter
    (fun (name, v) ->
      match Nvm.Persist.split_counter name with
      | None -> ()
      | Some (metric, site) -> (
        let prim, column = classify metric in
        let r = row site prim in
        match column with
        | `Emitted -> r.sr_emitted <- r.sr_emitted + v
        | `Ns -> r.sr_ns <- r.sr_ns + v
        | `Flit -> r.sr_flit <- r.sr_flit + v
        | `Policy -> r.sr_policy <- r.sr_policy + v))
    snap.Registry.sn_counters;
  Hashtbl.fold (fun k r acc -> (k, r) :: acc) tbl []
  |> List.sort (fun ((s1, p1), r1) ((s2, p2), r2) ->
         if r1.sr_ns <> r2.sr_ns then compare r2.sr_ns r1.sr_ns
         else compare (s1, p1) (s2, p2))

let render_site_table (snap : Registry.snapshot) =
  let rows = site_rows snap in
  if rows = [] then ""
  else begin
    let total_ns =
      List.fold_left (fun acc (_, r) -> acc + r.sr_ns) 0 rows
    in
    let b = Buffer.create 1024 in
    Buffer.add_string b "\nflush/fence sites:\n";
    Buffer.add_string b
      (Printf.sprintf "  %-22s %-12s %10s %12s %6s %12s %12s\n" "site" "prim"
         "emitted" "ns" "ns%" "pol-elided" "flit-elided");
    List.iter
      (fun ((site, prim), r) ->
        Buffer.add_string b
          (Printf.sprintf "  %-22s %-12s %10d %12d %5.1f%% %12d %12d\n" site
             prim r.sr_emitted r.sr_ns (pct r.sr_ns total_ns) r.sr_policy
             r.sr_flit))
      rows;
    Buffer.contents b
  end

let render_counters (snap : Registry.snapshot) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      (* per-site nvm counters are folded into the site table above *)
      if v <> 0 && Nvm.Persist.split_counter name = None then
        Buffer.add_string b (Printf.sprintf "  %-40s %12d\n" name v))
    snap.Registry.sn_counters;
  Buffer.contents b

(** The [memory:] line of [run] and [profile], plus a [flit:] line when
    FliT removed anything: the derived flush keys of [snap]. *)
let render_memory (snap : Registry.snapshot) =
  let d = Json.derived snap in
  Printf.sprintf
    "memory: %d wbinvd, %d clwb, %d clflush, %d fences, %d bg-flushes\n"
    (d "wbinvd") (d "clwb") (d "clflush") (d "sfence") (d "bg_flushes")
  ^
  if d "flit_removed" = 0 then ""
  else
    Printf.sprintf
      "flit:   %d clwb elided, %d clwb coalesced, %d clflush elided, %d \
       fences elided\n"
      (d "clwb_elided") (d "clwb_coalesced") (d "clflush_elided")
      (d "sfence_elided")

(** The full profile: phase table, per-site flush/fence table, then the
    remaining nonzero counters. *)
let render (snap : Registry.snapshot) =
  render_phase_table snap ^ render_site_table snap ^ "\ncounters:\n"
  ^ render_counters snap
