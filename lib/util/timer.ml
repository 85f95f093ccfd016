let cpu f =
  let t0 = Sys.time () in
  let r = f () in
  let t1 = Sys.time () in
  (r, t1 -. t0)

let cpu_auto ?(min_seconds = 0.02) f =
  let rec go reps =
    let t0 = Sys.time () in
    let r = ref (f ()) in
    for _ = 2 to reps do
      r := f ()
    done;
    let elapsed = Sys.time () -. t0 in
    if elapsed >= min_seconds || reps >= 1 lsl 16 then
      (!r, elapsed /. float_of_int reps)
    else go (reps * 2)
  in
  go 1

