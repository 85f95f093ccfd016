(* Model-based test of the circuit breaker.

   Random sequences of admissions, successes, failures and clock
   advances run against [Breaker.create ~clock] and against a pure model
   of the contract in breaker.mli: consecutive failures while closed
   trip the breaker open for [cooldown]; an open breaker rejects with
   the time left; the first admission after the cooldown is a probe,
   and at most [probes] probes are in flight while half-open; [probes]
   successes close it and a probe failure re-opens it.  Several
   admissions may be outstanding at once, and each [Admit] is balanced
   by exactly one success or failure: a success or failure with nothing
   outstanding is skipped, and the case ends by balancing the rest with
   successes.  After every command both must agree on the admission or
   rejection (with [retry_after]), the state (with its [until]),
   [trips], [closes] and how often [on_trip] and [on_close] have fired.

   The contract leaves one case open: an outcome that arrives while
   half-open from an admission that is not one of the current probes —
   granted while closed, or as a probe of an earlier half-open period.
   The breaker cannot tell it from a probe: a success frees a probe slot
   (never below zero) and counts toward closing, and a failure re-opens.
   The model does the same, so it counts outstanding admissions and not
   which state granted each. *)

module B = Dqep.Serve.Breaker

(* --- the reference model ------------------------------------------------- *)

type mstate = MClosed | MOpen of float | MHalf

type model = {
  st : mstate;
  consecutive : int;  (* failures in a row while closed *)
  probing : int;  (* probe slots taken while half-open *)
  successes : int;  (* successes in this half-open period *)
  trips : int;
  closes : int;
  outstanding : int;  (* admissions not yet balanced *)
}

let empty =
  { st = MClosed; consecutive = 0; probing = 0; successes = 0; trips = 0; closes = 0;
    outstanding = 0 }

let trip (cfg : B.config) now m =
  { m with
    st = MOpen (now +. cfg.cooldown);
    trips = m.trips + 1;
    consecutive = 0;
    probing = 0;
    successes = 0 }

let admit (cfg : B.config) now m =
  match m.st with
  | MClosed -> (m, B.Admit)
  | MOpen until when now >= until -> ({ m with st = MHalf; probing = 1; successes = 0 }, B.Admit)
  | MOpen until -> (m, B.Reject { retry_after = until -. now })
  | MHalf when m.probing < cfg.probes -> ({ m with probing = m.probing + 1 }, B.Admit)
  | MHalf -> (m, B.Reject { retry_after = 0. })

let success (cfg : B.config) m =
  match m.st with
  | MClosed -> { m with consecutive = 0 }
  | MOpen _ -> m
  | MHalf ->
    let m = { m with probing = Int.max 0 (m.probing - 1); successes = m.successes + 1 } in
    if m.successes >= cfg.probes then
      { m with st = MClosed; closes = m.closes + 1; consecutive = 0; probing = 0; successes = 0 }
    else m

let failure (cfg : B.config) now m =
  match m.st with
  | MClosed ->
    let m = { m with consecutive = m.consecutive + 1 } in
    if m.consecutive >= cfg.failure_threshold then trip cfg now m else m
  | MOpen _ -> m
  | MHalf -> trip cfg now m

(* --- commands ------------------------------------------------------------ *)

type cmd = Admit | Success | Failure | Advance of float

let show_cmd = function
  | Admit -> "Admit"
  | Success -> "Success"
  | Failure -> "Failure"
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
      (3, return Success);
      (3, return Failure);
      (2, map (fun dt -> Advance dt) (oneofl [ 0.; 0.25; 0.5; 1.; 2.5 ])) ]

let case_gen =
  let open QCheck.Gen in
  map2
    (fun (failure_threshold, cooldown, probes) cmds ->
      { cfg = B.config ~failure_threshold ~cooldown ~probes (); cmds })
    (triple (int_range 1 4) (oneofl [ 0.; 1.; 2.5 ]) (int_range 1 3))
    (list_size (int_range 0 120) cmd_gen)

let show_admission = function
  | B.Admit -> "admit"
  | B.Reject { retry_after } -> Printf.sprintf "reject (retry after %g)" retry_after

let show_state = function
  | B.Closed -> "closed"
  | B.Open { until } -> Printf.sprintf "open until %g" until
  | B.Half_open -> "half_open"

let to_state = function
  | MClosed -> B.Closed
  | MOpen until -> B.Open { until }
  | MHalf -> B.Half_open

(* --- the property --------------------------------------------------------- *)

let prop_breaker_matches_model =
  QCheck.Test.make ~name:"breaker = contract model" ~count:300
    (QCheck.make ~print:show_case
       ~shrink:(fun c -> QCheck.Iter.map (fun cmds -> { c with cmds }) (QCheck.Shrink.list c.cmds))
       case_gen) (fun c ->
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
        if want <> got then
          fail
            (Printf.sprintf "%s, model %s"
               (Option.fold ~none:"-" ~some:show_admission got)
               (Option.fold ~none:"-" ~some:show_admission want));
        let st = B.state b in
        if st <> to_state m.st then
          fail (Printf.sprintf "state %s, model %s" (show_state st) (show_state (to_state m.st)));
        if B.trips b <> m.trips then fail "trips differ";
        if B.closes b <> m.closes then fail "closes differ";
        if !tripped <> m.trips then fail "on_trip firings differ from trips";
        if !closed <> m.closes then fail "on_close firings differ from closes"
      in
      let balance m ~ok =
        let m = { m with outstanding = m.outstanding - 1 } in
        if ok then (B.success b; success c.cfg m) else (B.failure b; failure c.cfg !now m)
      in
      let step m = function
        | Admit ->
          let m, want = admit c.cfg !now m in
          let m = if want = B.Admit then { m with outstanding = m.outstanding + 1 } else m in
          (m, Some want, Some (B.admit b))
        | Success | Failure when m.outstanding = 0 -> (m, None, None)
        | Success -> (balance m ~ok:true, None, None)
        | Failure -> (balance m ~ok:false, None, None)
        | Advance dt ->
          now := !now +. dt;
          (m, None, None)
      in
      let m, i =
        List.fold_left
          (fun (m, i) cmd ->
            let m, want, got = step m cmd in
            check i cmd m ~want ~got;
            (m, i + 1))
          (empty, 0) c.cmds
      in
      (* Balance every admission still outstanding. *)
      let rec drain m i =
        if m.outstanding > 0 then begin
          let m = balance m ~ok:true in
          check i Success m ~want:None ~got:None;
          drain m (i + 1)
        end
      in
      drain m i;
      true)

let suite = ("breaker", [ QCheck_alcotest.to_alcotest prop_breaker_matches_model ])
