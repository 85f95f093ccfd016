(* Model-based tests of the circuit breaker.

   Random sequences of admissions, successes, failures and clock
   advances run against [Breaker.create ~clock] and against a pure model
   of the contract in breaker.mli: consecutive failures while closed
   trip the breaker open for [cooldown]; an open breaker rejects with
   the time left; the first admission after the cooldown is a probe,
   and at most [probes] probes are in flight while half-open; [probes]
   successes close it and a probe failure re-opens it.  Several
   admissions may be outstanding at once, each a ticket settled by
   exactly one success or failure, in any order: a command names an
   outstanding ticket by its position (modulo how many there are), a
   success or failure with nothing outstanding is skipped, and the case
   ends by settling the rest with successes.  After every command both
   must agree on the admission or rejection (with [retry_after]), the
   state (with its [until]), [trips], [closes] and how often [on_trip]
   and [on_close] have fired.

   The model tracks which period granted each admission (a period ends
   at every transition).  The outcome of an admission from an earlier
   period counts while closed, and changes nothing while open or
   half-open: it is not one of the current probes.

   A second property states the probe bound directly, from what the
   breaker shows: an admission after which the breaker is half-open is
   a probe of that half-open stretch, and while half-open no more than
   [probes] of the current stretch's probes are unsettled. *)

module B = Dqep.Serve.Breaker

(* --- the reference model ------------------------------------------------- *)

type mstate = MClosed | MOpen of float | MHalf

type model = {
  st : mstate;
  period : int;  (* bumped on every transition *)
  consecutive : int;  (* failures in a row while closed *)
  probing : int;  (* probe slots taken while half-open *)
  successes : int;  (* successes in this half-open period *)
  trips : int;
  closes : int;
}

let empty =
  { st = MClosed; period = 0; consecutive = 0; probing = 0; successes = 0;
    trips = 0; closes = 0 }

let enter_state st m = { m with st; period = m.period + 1 }

let trip (cfg : B.config) now m =
  { (enter_state (MOpen (now +. cfg.cooldown)) m) with
    trips = m.trips + 1;
    consecutive = 0;
    probing = 0;
    successes = 0 }

(* The new model and, for an admission, the period that granted it. *)
let admit (cfg : B.config) now m =
  match m.st with
  | MClosed -> (m, Ok m.period)
  | MOpen until when now >= until ->
    let m = { (enter_state MHalf m) with probing = 1; successes = 0 } in
    (m, Ok m.period)
  | MOpen until -> (m, Error (until -. now))
  | MHalf when m.probing < cfg.probes ->
    ({ m with probing = m.probing + 1 }, Ok m.period)
  | MHalf -> (m, Error 0.)

let settle (cfg : B.config) now m ~granted ~ok =
  match m.st with
  | MClosed when ok -> { m with consecutive = 0 }
  | MClosed ->
    let m = { m with consecutive = m.consecutive + 1 } in
    if m.consecutive >= cfg.failure_threshold then trip cfg now m else m
  | MHalf when granted = m.period && ok ->
    let m = { m with probing = m.probing - 1; successes = m.successes + 1 } in
    if m.successes >= cfg.probes then
      { (enter_state MClosed m) with
        closes = m.closes + 1; consecutive = 0; probing = 0; successes = 0 }
    else m
  | MHalf when granted = m.period -> trip cfg now m
  | MHalf | MOpen _ -> m

(* --- commands ------------------------------------------------------------ *)

type cmd = Admit | Success of int | Failure of int | Advance of float

let show_cmd = function
  | Admit -> "Admit"
  | Success i -> Printf.sprintf "Success %d" i
  | Failure i -> Printf.sprintf "Failure %d" i
  | Advance dt -> Printf.sprintf "Advance %g" dt

type case = { cfg : B.config; cmds : cmd list }

let show_case c =
  Printf.sprintf "threshold %d, cooldown %g, probes %d: [%s]" c.cfg.B.failure_threshold
    c.cfg.B.cooldown c.cfg.B.probes
    (String.concat "; " (List.map show_cmd c.cmds))

let cmd_gen =
  let open QCheck.Gen in
  frequency
    [ (5, return Admit);
      (3, map (fun i -> Success i) (int_bound 7));
      (3, map (fun i -> Failure i) (int_bound 7));
      (2, map (fun dt -> Advance dt) (oneofl [ 0.; 0.25; 0.5; 1.; 2.5 ])) ]

let case_gen =
  let open QCheck.Gen in
  map2
    (fun (failure_threshold, cooldown, probes) cmds ->
      { cfg = B.config ~failure_threshold ~cooldown ~probes (); cmds })
    (triple (int_range 1 4) (oneofl [ 0.; 1.; 2.5 ]) (int_range 1 3))
    (list_size (int_range 0 120) cmd_gen)

let arb_case =
  QCheck.make ~print:show_case
    ~shrink:(fun c ->
      QCheck.Iter.map (fun cmds -> { c with cmds }) (QCheck.Shrink.list c.cmds))
    case_gen

let show_admission = function
  | Ok _ -> "admit"
  | Error retry_after -> Printf.sprintf "reject (retry after %g)" retry_after

let show_state = function
  | B.Closed -> "closed"
  | B.Open { until } -> Printf.sprintf "open until %g" until
  | B.Half_open -> "half_open"

let to_state = function
  | MClosed -> B.Closed
  | MOpen until -> B.Open { until }
  | MHalf -> B.Half_open

(* Take the [i]-th (modulo the length) element out of a non-empty list. *)
let pick i l =
  let i = i mod List.length l in
  (List.nth l i, List.filteri (fun j _ -> j <> i) l)

(* --- the properties -------------------------------------------------------- *)

let prop_breaker_matches_model =
  QCheck.Test.make ~name:"breaker = contract model" ~count:300 arb_case (fun c ->
      let now = ref 0. and tripped = ref 0 and closed = ref 0 in
      let b =
        B.create ~clock:(fun () -> !now)
          ~on_trip:(fun () -> incr tripped)
          ~on_close:(fun () -> incr closed)
          c.cfg
      in
      let check i cmd m ~want ~got =
        let fail what =
          QCheck.Test.fail_reportf "command %d (%s): %s" i (show_cmd cmd) what
        in
        (match (want, got) with
        | None, None -> ()
        | Some w, Some g ->
          let same =
            match (w, g) with
            | Ok _, Ok _ -> true
            | Error a, Error b -> Float.equal a b
            | Ok _, Error _ | Error _, Ok _ -> false
          in
          if not same then
            fail
              (Printf.sprintf "%s, model %s" (show_admission g)
                 (show_admission w))
        | _ -> fail "admission mismatch");
        let st = B.state b in
        if st <> to_state m.st then
          fail (Printf.sprintf "state %s, model %s" (show_state st) (show_state (to_state m.st)));
        if B.trips b <> m.trips then fail "trips differ";
        if B.closes b <> m.closes then fail "closes differ";
        if !tripped <> m.trips then fail "on_trip firings differ from trips";
        if !closed <> m.closes then fail "on_close firings differ from closes"
      in
      (* Outstanding admissions: the breaker's ticket and the model's
         granting period. *)
      let settle (m, out) i ~ok =
        let (ticket, granted), out = pick i out in
        if ok then B.succeeded ticket else B.failed ticket;
        (settle c.cfg !now m ~granted ~ok, out)
      in
      let step (m, out) = function
        | Admit ->
          let m, want = admit c.cfg !now m in
          let got = B.enter b in
          let out =
            match (want, got) with
            | Ok granted, Ok ticket -> out @ [ (ticket, granted) ]
            | _ -> out
          in
          ((m, out), Some want, Some got)
        | Success _ | Failure _ when out = [] -> ((m, out), None, None)
        | Success i -> (settle (m, out) i ~ok:true, None, None)
        | Failure i -> (settle (m, out) i ~ok:false, None, None)
        | Advance dt ->
          now := !now +. dt;
          ((m, out), None, None)
      in
      let state, i =
        List.fold_left
          (fun (state, i) cmd ->
            let (m, out), want, got = step state cmd in
            check i cmd m ~want ~got;
            ((m, out), i + 1))
          ((empty, []), 0) c.cmds
      in
      (* Settle every admission still outstanding. *)
      let rec drain (m, out) i =
        if out <> [] then begin
          let m, out = settle (m, out) 0 ~ok:true in
          check i (Success 0) m ~want:None ~got:None;
          drain (m, out) (i + 1)
        end
      in
      drain state i;
      true)

let prop_probe_bound =
  QCheck.Test.make ~name:"never more than probes probes in flight" ~count:500 arb_case
    (fun c ->
      let now = ref 0. in
      let b = B.create ~clock:(fun () -> !now) c.cfg in
      (* Outstanding admissions: the ticket and the half-open stretch it
         probes, if any.  A stretch begins when an admission finds the
         breaker open and leaves it half-open. *)
      let stretch = ref 0 and out = ref [] in
      let in_flight () =
        List.length (List.filter (fun (_, s) -> s = Some !stretch) !out)
      in
      List.iteri
        (fun i cmd ->
          (match cmd with
          | Admit -> (
            let before = B.state b in
            match B.enter b with
            | Ok ticket ->
              let probe =
                match (before, B.state b) with
                | B.Open _, B.Half_open ->
                  incr stretch;
                  Some !stretch
                | B.Half_open, B.Half_open -> Some !stretch
                | _ -> None
              in
              out := !out @ [ (ticket, probe) ]
            | Error _ -> ())
          | (Success _ | Failure _) when !out = [] -> ()
          | Success j | Failure j ->
            let (ticket, _), rest = pick j !out in
            out := rest;
            (match cmd with Success _ -> B.succeeded ticket | _ -> B.failed ticket)
          | Advance dt -> now := !now +. dt);
          if B.state b = B.Half_open && in_flight () > c.cfg.B.probes then
            QCheck.Test.fail_reportf
              "command %d (%s): %d probes in flight, bound %d" i (show_cmd cmd)
              (in_flight ()) c.cfg.B.probes)
        c.cmds;
      true)

let suite =
  ( "breaker",
    List.map QCheck_alcotest.to_alcotest
      [ prop_breaker_matches_model; prop_probe_bound ] )
