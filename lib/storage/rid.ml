type t = { page : int; slot : int }

let make ~page ~slot = { page; slot }

let compare a b =
  match Int.compare a.page b.page with
  | 0 -> Int.compare a.slot b.slot
  | c -> c

let equal a b = compare a b = 0
