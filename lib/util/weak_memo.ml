type ('a, 'b, 'v) t = {
  ways : ('a, 'b, 'v) Ephemeron.K2.t option Atomic.t array;
  recent : int array;
      (* per set, the way last found or stored; a plain int, so a racing
         update only misjudges which way to evict next *)
}

let create slots =
  if slots < 2 || slots land (slots - 1) <> 0 then
    invalid_arg "Weak_memo.create: slots must be a power of two, at least 2";
  { ways = Array.init slots (fun _ -> Atomic.make None);
    recent = Array.make (slots / 2) 0 }

let set_of t hash = hash land (Array.length t.recent - 1)

let query t set way a b =
  match Atomic.get t.ways.((2 * set) + way) with
  | Some e -> Ephemeron.K2.query e a b
  | None -> None

let find t ~hash a b =
  let set = set_of t hash in
  match query t set 0 a b with
  | Some _ as v ->
    t.recent.(set) <- 0;
    v
  | None -> (
    match query t set 1 a b with
    | Some _ as v ->
      t.recent.(set) <- 1;
      v
    | None -> None)

let replace t ~hash a b v =
  let set = set_of t hash in
  let way =
    if query t set 0 a b <> None then 0
    else if query t set 1 a b <> None then 1
    else 1 - t.recent.(set)
  in
  Atomic.set t.ways.((2 * set) + way) (Some (Ephemeron.K2.make a b v));
  t.recent.(set) <- way
