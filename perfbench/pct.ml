(** Exact latency percentiles over the benchmark's own per-op samples.

    Nearest rank: the [q]-quantile of [n] samples is the smallest sample
    [x] such that at least [ceil (q * n)] samples are [<= x]. The quantile
    is given as the integer fraction [num/den] (p99.9 is [999/1000]), so
    the rank is exact — no float rounding can move it by one sample.

    A percentile is only reported when at least [min_beyond] (10) samples
    lie beyond its rank: with fewer, one sample decides it. Never use the
    telemetry registry's log2 buckets for this — they are accurate only to
    a factor of 2. *)

let min_beyond = 10

type q = { label : string; num : int; den : int }

let p50 = { label = "p50"; num = 1; den = 2 }
let p999 = { label = "p99.9"; num = 999; den = 1000 }

(** 1-based nearest rank of quantile [q] among [n] samples. *)
let rank q ~n = max 1 (((q.num * n) + q.den - 1) / q.den)

(** [of_sorted q a]: the [q]-percentile of the ascending array [a], or
    [None] when fewer than [min_beyond] samples lie beyond its rank. *)
let of_sorted q a =
  let n = Array.length a in
  if n = 0 then None
  else
    let r = rank q ~n in
    if n - r < min_beyond then None else Some a.(r - 1)

(** Interquartile mean of the ascending array [a]: the mean of the
    samples left after dropping the lowest and highest [n/4]. A typical
    latency that, unlike the median, neither sits on one discrete
    simulated-ns value for every seed nor jumps between the read and the
    update mode of a mixed load. *)
let iqm a =
  let n = Array.length a in
  if n = 0 then None
  else begin
    let lo = n / 4 and hi = n - (n / 4) in
    let s = ref 0 in
    for i = lo to hi - 1 do
      s := !s + a.(i)
    done;
    Some (float_of_int !s /. float_of_int (hi - lo))
  end
