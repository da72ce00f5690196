(* Exact rational arithmetic: unit cases for the number-theoretic
   helpers the analysis leans on (floor/ceil/fmod at boundaries) and
   qcheck laws for the field operations. *)

module Q = Rational

let q = Q.of_decimal_string

let check_q msg expected actual =
  Alcotest.(check string) msg (Q.to_string expected) (Q.to_string actual)

(* --- construction and printing --- *)

let test_make_normalises () =
  check_q "6/4 = 3/2" (Q.make 3 2) (Q.make 6 4);
  check_q "-6/4 = -3/2" (Q.make (-3) 2) (Q.make 6 (-4));
  check_q "0/7 = 0" Q.zero (Q.make 0 7);
  Alcotest.check_raises "den 0" Q.Division_by_zero (fun () ->
      ignore (Q.make 1 0))

let test_of_decimal_string () =
  check_q "int" (Q.of_int 12) (q "12");
  check_q "negative int" (Q.of_int (-3)) (q "-3");
  check_q "decimal" (Q.make 4 5) (q "0.8");
  check_q "decimal 2" (Q.make 13 4) (q "3.25");
  check_q "negative decimal" (Q.make (-1) 4) (q "-0.25");
  check_q "fraction" (Q.make 2 5) (q "2/5");
  check_q "fraction negative" (Q.make (-2) 5) (q "-2/5");
  check_q "no leading digit" (Q.make 1 2) (q ".5");
  List.iter
    (fun s ->
      match q s with
      | _ -> Alcotest.failf "%S should not parse" s
      | exception Invalid_argument _ -> ())
    [
      "";
      "abc";
      "1/";
      "/2";
      "1.2.3";
      "--3";
      "2/0";
      (* decimal digits only: no other base, underscore or inner sign *)
      "0x10";
      "1_6";
      "0b10000";
      "0o20";
      "1.+5";
      "1.-5";
      "1/+2";
      "1/-2";
      "4611686018427387904";
    ];
  check_q "leading plus" (Q.of_int 16) (q "+16");
  check_q "trimmed" (Q.make 3 2) (q " 3 / 2 ");
  check_q "no fractional digit" (Q.of_int 5) (q "5.");
  check_q "negative, no leading digit" (Q.make (-1) 2) (q "-.5");
  check_q "min_int" (Q.of_int min_int) (q "-4611686018427387904");
  check_q "max_int" (Q.of_int max_int) (q "4611686018427387903")

let test_to_string () =
  Alcotest.(check string) "int" "5" (Q.to_string (Q.of_int 5));
  Alcotest.(check string) "frac" "-3/4" (Q.to_string (Q.make (-3) 4))

let test_pp_decimal () =
  let s x = Format.asprintf "%a" Q.pp_decimal x in
  Alcotest.(check string) "int" "7" (s (Q.of_int 7));
  Alcotest.(check string) "half" "0.5" (s (Q.make 1 2));
  Alcotest.(check string) "third rounded" "0.3333" (s (Q.make 1 3));
  Alcotest.(check string) "two thirds rounded" "0.6667" (s (Q.make 2 3));
  Alcotest.(check string) "negative" "-2.25" (s (Q.make (-9) 4))

(* --- rounding --- *)

let test_floor_ceil () =
  Alcotest.(check int) "floor 7/2" 3 (Q.floor (Q.make 7 2));
  Alcotest.(check int) "floor -1/2" (-1) (Q.floor (Q.make (-1) 2));
  Alcotest.(check int) "floor -4/2" (-2) (Q.floor (Q.make (-4) 2));
  Alcotest.(check int) "ceil 7/2" 4 (Q.ceil (Q.make 7 2));
  Alcotest.(check int) "ceil -1/2" 0 (Q.ceil (Q.make (-1) 2));
  Alcotest.(check int) "ceil 3" 3 (Q.ceil (Q.of_int 3));
  (* the boundary that matters for Table 3: (19 + 31) / 50 = 1 exactly *)
  Alcotest.(check int) "floor (J+phi)/T boundary" 1
    (Q.floor Q.((of_int 19 + of_int 31) / of_int 50))

let test_fmod () =
  check_q "19 mod 50" (Q.of_int 19) (Q.fmod (Q.of_int 19) (Q.of_int 50));
  check_q "50 mod 50" Q.zero (Q.fmod (Q.of_int 50) (Q.of_int 50));
  check_q "-3 mod 50" (Q.of_int 47) (Q.fmod (Q.of_int (-3)) (Q.of_int 50));
  check_q "7/2 mod 3/2" (Q.make 1 2) (Q.fmod (Q.make 7 2) (Q.make 3 2));
  Alcotest.check_raises "mod 0" Q.Division_by_zero (fun () ->
      ignore (Q.fmod Q.one Q.zero))

let test_gcd_lcm () =
  check_q "gcd ints" (Q.of_int 6) (Q.gcd_q (Q.of_int 12) (Q.of_int 18));
  check_q "gcd fractions" (Q.make 1 6) (Q.gcd_q (Q.make 1 2) (Q.make 1 3));
  check_q "gcd with zero" (Q.make 3 4) (Q.gcd_q Q.zero (Q.make 3 4));
  check_q "lcm ints" (Q.of_int 36) (Q.lcm_q (Q.of_int 12) (Q.of_int 18));
  check_q "lcm fractions" Q.one (Q.lcm_q (Q.make 1 2) (Q.make 1 3));
  check_q "lcm mixed" (Q.of_int 15) (Q.lcm_q (Q.of_int 5) (Q.make 15 2));
  Alcotest.check_raises "lcm with zero" Q.Division_by_zero (fun () ->
      ignore (Q.lcm_q Q.zero Q.one))

let test_overflow_detected () =
  let big = Q.of_int max_int in
  Alcotest.check_raises "add overflow" Q.Overflow (fun () ->
      ignore (Q.add big big));
  Alcotest.check_raises "mul overflow" Q.Overflow (fun () ->
      ignore (Q.mul big (Q.of_int 2)))

(* Comparison must not overflow even when the cross products num1·den2
   would: the continued-fraction descent compares without multiplying.
   These exact pairs used to raise [Q.Overflow]. *)
let test_compare_never_overflows () =
  let big = Q.make max_int 3 and big2 = Q.make (max_int - 1) 2 in
  Alcotest.(check int) "max_int/3 < (max_int-1)/2" (-1) (Q.compare big big2);
  Alcotest.(check int) "antisymmetric" 1 (Q.compare big2 big);
  Alcotest.(check int) "negated flips" 1 (Q.compare (Q.neg big) (Q.neg big2));
  Alcotest.(check int) "signs decide" (-1) (Q.compare (Q.neg big) big2);
  Alcotest.(check int) "equal huge" 0 (Q.compare big big);
  (* tiny fractions with huge coprime denominators *)
  let eps = Q.make 2 max_int and eps' = Q.make 3 (max_int - 1) in
  Alcotest.(check int) "2/max_int < 3/(max_int-1)" (-1) (Q.compare eps eps');
  Alcotest.(check int) "tiny vs zero" 1 (Q.compare eps Q.zero);
  (* mixed magnitudes: integer part decides immediately *)
  Alcotest.(check int) "huge vs one" 1 (Q.compare big Q.one);
  Alcotest.(check int) "negative huge vs one" (-1) (Q.compare (Q.neg big) Q.one)

(* The scaled-timebase helpers must detect overflow exactly where native
   ints run out, not silently wrap: these values sit within a factor of
   two of max_int on both sides of the line. *)
let test_scaled_helpers () =
  Alcotest.(check int) "lcm_den folds" 12 (Q.lcm_den 4 (Q.make 5 6));
  Alcotest.(check int) "lcm_den of integer" 4 (Q.lcm_den 4 (Q.of_int 7));
  (* coprime denominators just below the square root of (63-bit)
     max_int fit... *)
  let p = 2_147_483_647 and q = 2_147_483_629 in
  Alcotest.(check int) "huge coprime lcm" (p * q)
    (Q.lcm_den p (Q.make 1 q));
  (* ...while the next pair of huge coprimes must raise, not wrap *)
  Alcotest.check_raises "lcm_den overflow" Q.Overflow (fun () ->
      ignore (Q.lcm_den (p * 2) (Q.make 1 (q * 2))));
  Alcotest.(check int) "to_scaled" 15 (Q.to_scaled ~scale:6 (Q.make 5 2));
  Alcotest.check_raises "to_scaled off-lattice" Q.Overflow (fun () ->
      ignore (Q.to_scaled ~scale:6 (Q.make 1 4)));
  Alcotest.check_raises "to_scaled overflow" Q.Overflow (fun () ->
      ignore (Q.to_scaled ~scale:(max_int / 2) (Q.of_int 3)));
  (* the largest representable scaled value survives the round trip *)
  Alcotest.(check bool) "of_scaled inverts" true
    (Q.equal (Q.make max_int 6) (Q.of_scaled ~scale:6 max_int));
  let x = Q.make ((max_int / 6) * 6) 6 in
  Alcotest.(check int) "near-max round trip"
    ((max_int / 6) * 6)
    (Q.to_scaled ~scale:6 x);
  Alcotest.check_raises "bad accumulator" (Invalid_argument
    "Rational.lcm_den: accumulator must be > 0") (fun () ->
      ignore (Q.lcm_den 0 Q.one));
  Alcotest.check_raises "bad scale" (Invalid_argument
    "Rational.to_scaled: scale must be > 0") (fun () ->
      ignore (Q.to_scaled ~scale:0 Q.one))

let test_checked_ops () =
  let open Q.Checked in
  Alcotest.(check int) "checked add" 7 (3 + 4);
  Alcotest.(check int) "checked sub" (-1) (3 - 4);
  Alcotest.(check int) "checked mul" 12 (3 * 4);
  Alcotest.check_raises "checked add overflow" Q.Overflow (fun () ->
      ignore (max_int + 1));
  Alcotest.check_raises "checked sub overflow" Q.Overflow (fun () ->
      ignore (min_int - 1));
  Alcotest.check_raises "checked mul overflow" Q.Overflow (fun () ->
      ignore ((max_int / 2) * 3))

let test_division_by_zero () =
  Alcotest.check_raises "div" Q.Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero));
  Alcotest.check_raises "inv" Q.Division_by_zero (fun () ->
      ignore (Q.inv Q.zero))

(* --- qcheck laws --- *)

let rational_gen =
  QCheck.Gen.(
    map2
      (fun num den -> Q.make num (1 + abs den))
      (int_range (-10_000) 10_000)
      (int_range 0 999))

let arb_rational =
  QCheck.make rational_gen ~print:(fun x -> Q.to_string x)

let prop name count arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

let laws =
  [
    prop "add commutative" 500
      (QCheck.pair arb_rational arb_rational)
      (fun (a, b) -> Q.equal (Q.add a b) (Q.add b a));
    prop "add associative" 500
      (QCheck.triple arb_rational arb_rational arb_rational)
      (fun (a, b, c) -> Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c)));
    prop "mul distributes" 500
      (QCheck.triple arb_rational arb_rational arb_rational)
      (fun (a, b, c) ->
        Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)));
    prop "sub inverse" 500
      (QCheck.pair arb_rational arb_rational)
      (fun (a, b) -> Q.equal (Q.add (Q.sub a b) b) a);
    prop "compare antisymmetric" 500
      (QCheck.pair arb_rational arb_rational)
      (fun (a, b) -> Q.compare a b = -Q.compare b a);
    prop "compare consistent with sub" 500
      (QCheck.pair arb_rational arb_rational)
      (fun (a, b) -> Q.compare a b = Q.sign (Q.sub a b));
    prop "floor <= x < floor+1" 500 arb_rational (fun x ->
        let f = Q.of_int (Q.floor x) in
        Q.(f <= x) && Q.(x < Q.add f Q.one));
    prop "ceil is -floor(-x)" 500 arb_rational (fun x ->
        Q.ceil x = -Q.floor (Q.neg x));
    prop "fmod in [0, y)" 500
      (QCheck.pair arb_rational arb_rational)
      (fun (x, y) ->
        let y = Q.add (Q.abs y) Q.one in
        let m = Q.fmod x y in
        Q.(m >= Q.zero) && Q.(m < y));
    prop "fmod consistent" 500
      (QCheck.pair arb_rational arb_rational)
      (fun (x, y) ->
        let y = Q.add (Q.abs y) Q.one in
        let m = Q.fmod x y in
        let k = Q.floor (Q.div x y) in
        Q.equal x (Q.add (Q.mul y (Q.of_int k)) m));
    prop "to_string round-trips" 500 arb_rational (fun x ->
        Q.equal x (Q.of_decimal_string (Q.to_string x)));
    prop "to_string = the Printf rendering" 1000
      (QCheck.make
         ~print:(fun (x : Q.t) ->
           Printf.sprintf "{num = %d; den = %d}" x.Q.num x.Q.den)
         QCheck.Gen.(
           oneof
             [
               map2 Q.make int (map (fun d -> 1 + abs (d / 2)) int);
               map (fun n -> Q.make n 1) int;
               oneofl
                 [
                   Q.of_int min_int;
                   Q.of_int max_int;
                   Q.make 1 max_int;
                   Q.make (-1) max_int;
                   Q.make max_int 2;
                   Q.make min_int 3;
                   Q.make (min_int + 1) max_int;
                   Q.zero;
                   Q.minus_one;
                   Q.make (-9) 10;
                 ];
             ]))
      (fun x ->
        Q.to_string x
        = if Q.is_integer x then string_of_int x.Q.num
          else Printf.sprintf "%d/%d" x.Q.num x.Q.den);
    prop "mul_int matches mul" 500
      (QCheck.pair arb_rational QCheck.small_int)
      (fun (x, n) -> Q.equal (Q.mul_int x n) (Q.mul x (Q.of_int n)));
    prop "lcm is a common integer multiple" 300
      (QCheck.pair arb_rational arb_rational)
      (fun (x, y) ->
        let x = Q.add (Q.abs x) Q.one and y = Q.add (Q.abs y) Q.one in
        let l = Q.lcm_q x y in
        Q.is_integer (Q.div l x) && Q.is_integer (Q.div l y));
    prop "gcd divides both into integers" 300
      (QCheck.pair arb_rational arb_rational)
      (fun (x, y) ->
        let x = Q.add (Q.abs x) Q.one and y = Q.add (Q.abs y) Q.one in
        let g = Q.gcd_q x y in
        Q.is_integer (Q.div x g) && Q.is_integer (Q.div y g));
  ]

let () =
  Alcotest.run "rational"
    [
      ( "unit",
        [
          Alcotest.test_case "make normalises" `Quick test_make_normalises;
          Alcotest.test_case "of_decimal_string" `Quick test_of_decimal_string;
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "pp_decimal" `Quick test_pp_decimal;
          Alcotest.test_case "floor/ceil" `Quick test_floor_ceil;
          Alcotest.test_case "fmod" `Quick test_fmod;
          Alcotest.test_case "gcd/lcm" `Quick test_gcd_lcm;
          Alcotest.test_case "overflow detected" `Quick test_overflow_detected;
          Alcotest.test_case "compare never overflows" `Quick
            test_compare_never_overflows;
          Alcotest.test_case "scaled timebase helpers" `Quick
            test_scaled_helpers;
          Alcotest.test_case "checked int operators" `Quick test_checked_ops;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
        ] );
      ("laws", laws);
    ]
