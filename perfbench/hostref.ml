(* Host speed reference.

   The benchmark runs on a shared host whose speed drifts: a fixed CPU
   loop takes up to a third longer for tens of seconds, then speeds up
   again, and states last longer than a run. Every time figure of a run
   moves with the host at once. So the run times a fixed unit of the
   benchmark's own work, [unit_work], whenever the program is not
   running — in the open loop's idle time instead of a bare spin,
   after each closed-loop op, and in short bursts before update-probe
   cycles and set-up samples — and the end-to-end time metrics are
   scaled to one nominal
   host speed: a time t measured where a unit took u us reads
   t * nominal_us / u. [unit_work] shares nothing with the program (no
   allocation, no program code), so a change to the program does not
   move the reference. *)

(* the median unit time on the host the bounds were set on (2.0 GHz
   Intel Xeon vCPU) *)
let nominal_us = 25.0

(* 16 MiB: past a core's private caches, in the shared last-level cache
   and memory where the program's heap lives, so the reference slows
   when neighbours contend for them as the program does *)
let buf_bits = 24
let buf = Bytes.make (1 lsl buf_bits) '\000'
let state = ref 0x1F123BB5

(* integer arithmetic and pseudo-random byte updates over [buf] *)
let unit_work () =
  let x = ref !state in
  for _ = 1 to 1024 do
    x := (!x * 0x2545F4914F6CDD1D) + 0x14057B7EF767814F;
    let i = (!x lsr 20) land ((1 lsl buf_bits) - 1) in
    Bytes.unsafe_set buf i
      (Char.unsafe_chr ((Char.code (Bytes.unsafe_get buf i) + !x) land 255))
  done;
  state := !x

(* Every unit time, in time order, off the OCaml heap (the run's heap
   figure is the program's), with the index of the first unit of each
   100 ms bucket since [origin]. *)
let width = 0.1
let origin = ref 0.0
let times = ref (Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout (1 lsl 20))
let n = ref 0
let starts = ref [||]  (* starts.(b): first unit of bucket b *)
let nb = ref 0
let medians = ref [||]  (* memoized bucket medians, nan = not yet *)

let reset () =
  origin := Unix.gettimeofday ();
  n := 0;
  nb := 0;
  starts := Array.make 1024 0;
  medians := [||]

let () = reset ()

let record t dt =
  let b = int_of_float ((t -. !origin) /. width) in
  if !n = Bigarray.Array1.dim !times then begin
    let a = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout (2 * !n) in
    Bigarray.Array1.blit !times (Bigarray.Array1.sub a 0 !n);
    times := a
  end;
  while !nb <= b do
    if !nb = Array.length !starts then
      starts := Array.append !starts (Array.make !nb 0);
    !starts.(!nb) <- !n;
    incr nb
  done;
  Bigarray.Array1.unsafe_set !times !n dt;
  incr n

(* one unit, timed on the nanosecond monotonic clock (gettimeofday's
   microseconds would quantize a ~25 us unit) *)
let tick () =
  let c0 = Monotonic_clock.now () in
  unit_work ();
  let c1 = Monotonic_clock.now () in
  record (Unix.gettimeofday ()) (Int64.to_float (Int64.sub c1 c0) *. 1e-9)

let burst k =
  for _ = 1 to k do
    tick ()
  done

(* median unit time of bucket [b], or nan with fewer than 10 units;
   memoized once the bucket is complete *)
let bucket_median b =
  if Array.length !medians < !nb then begin
    let m = Array.make (2 * !nb) Float.nan in
    Array.blit !medians 0 m 0 (Array.length !medians);
    medians := m
  end;
  let lo = !starts.(b) and hi = if b + 1 < !nb then !starts.(b + 1) else !n in
  if hi - lo < 10 then Float.nan
  else if not (Float.is_nan !medians.(b)) then !medians.(b)
  else begin
    let a = Array.init (hi - lo) (fun i -> Bigarray.Array1.get !times (lo + i)) in
    Array.sort compare a;
    let m = a.((hi - lo) / 2) in
    if b + 1 < !nb then !medians.(b) <- m;
    m
  end

(* The host's unit time (us) around [t]: the median of the bucket
   medians within 1 s of it, widened until three buckets hold units.
   Medians, so that units the program's own cache traffic slowed (the
   first ones after a request) do not count. *)
let unit_us_at t =
  let c = int_of_float ((t -. !origin) /. width) in
  let rec widen r =
    let lo = max 0 (c - r) and hi = min (!nb - 1) (c + r) in
    let ms =
      List.filter
        (fun m -> not (Float.is_nan m))
        (List.init (max 0 (hi - lo + 1)) (fun i -> bucket_median (lo + i)))
    in
    if List.length ms >= 3 || (lo = 0 && hi = !nb - 1) then
      match List.sort compare ms with
      | [] -> nominal_us
      | l -> List.nth l (List.length l / 2) *. 1e6
    else widen (2 * r)
  in
  widen 10

(* a duration measured around [at], at nominal host speed *)
let scale_time ~at dt = dt *. nominal_us /. unit_us_at at

(* a rate measured around [at], at nominal host speed *)
let scale_rate ~at r = r *. unit_us_at at /. nominal_us

(* the median of every bucket's median so far, for the report *)
let overall_us () =
  let ms =
    List.filter
      (fun m -> not (Float.is_nan m))
      (List.init !nb bucket_median)
  in
  match List.sort compare ms with
  | [] -> Float.nan
  | l -> List.nth l (List.length l / 2) *. 1e6

(* the host's unit time (us) per second of the run so far, for the
   report *)
let per_second () =
  let per = int_of_float (1.0 /. width) in
  List.init ((!nb + per - 1) / per) (fun k ->
      unit_us_at (!origin +. float_of_int k +. 0.5))
