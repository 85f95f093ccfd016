module Rng = Dqep_util.Rng

type kind = Transient | Permanent
type op = Read | Write

exception Io_fault of { kind : kind; op : op; page : int }

let pp_kind ppf = function
  | Transient -> Format.pp_print_string ppf "transient"
  | Permanent -> Format.pp_print_string ppf "permanent"

let pp_op ppf = function
  | Read -> Format.pp_print_string ppf "read"
  | Write -> Format.pp_print_string ppf "write"

let () =
  Printexc.register_printer (function
    | Io_fault { kind; op; page } ->
      Some
        (Format.asprintf "Fault.Io_fault(%a %a of page %d)" pp_kind kind pp_op
           op page)
    | _ -> None)

type config = {
  seed : int;
  read_fault_rate : float;
  write_fault_rate : float;
  fail_after : (int * kind) option;
  broken_pages : (int * kind) list;
}

let config ?(read_fault_rate = 0.) ?(write_fault_rate = 0.) ?fail_after
    ?(broken_pages = []) ~seed () =
  let check_rate name r =
    if not (r >= 0. && r <= 1.) then
      invalid_arg (Printf.sprintf "Fault.config: %s outside [0, 1]" name)
  in
  check_rate "read_fault_rate" read_fault_rate;
  check_rate "write_fault_rate" write_fault_rate;
  (match fail_after with
  | Some (n, _) when n < 0 -> invalid_arg "Fault.config: fail_after < 0"
  | _ -> ());
  { seed; read_fault_rate; write_fault_rate; fail_after; broken_pages }

type t = {
  config : config;
  rng : Rng.t;
  mutable ios : int;
  mutable injected : int;
}

let create config = { config; rng = Rng.create config.seed; ios = 0; injected = 0 }
let ios_attempted t = t.ios
let injected t = t.injected

let raise_fault t kind op page =
  t.injected <- t.injected + 1;
  raise (Io_fault { kind; op; page })

(* One schedule consultation per physical I/O.  Check order matters for
   determinism: the data-dependent rules (broken page, I/O count) come
   before the probabilistic one, and the RNG is only consulted when a
   rate is actually configured, so enabling [broken_pages] never shifts
   the random stream. *)
let consult t op page rate =
  t.ios <- t.ios + 1;
  (match List.assoc_opt page t.config.broken_pages with
  | Some kind -> raise_fault t kind op page
  | None -> ());
  (match t.config.fail_after with
  | Some (n, kind) when t.ios > n -> raise_fault t kind op page
  | _ -> ());
  if rate > 0. && Rng.float t.rng < rate then raise_fault t Transient op page

let on_read t ~page = consult t Read page t.config.read_fault_rate
let on_write t ~page = consult t Write page t.config.write_fault_rate
