(* Tests for the lint framework: registry invariants matching the
   paper's Table 1 counts, per-flaw ground truth, effective-date
   gating, and individual lint behaviours. *)

let check = Alcotest.check

let test_registry_counts () =
  check Alcotest.int "95 lints total" 95 (List.length Lint.Registry.all);
  check Alcotest.int "50 new lints" 50
    (List.length (List.filter (fun (l : Lint.t) -> l.Lint.is_new) Lint.Registry.all));
  let expect ty all_n new_n =
    check (Alcotest.pair Alcotest.int Alcotest.int) (Lint.nc_type_name ty)
      (all_n, new_n) (Lint.Registry.counts_by_type ty)
  in
  (* The #Lints columns of Table 1. *)
  expect Lint.Invalid_character 22 10;
  expect Lint.Bad_normalization 4 3;
  expect Lint.Illegal_format 17 0;
  expect Lint.Invalid_encoding 48 37;
  expect Lint.Invalid_structure 2 0;
  expect Lint.Discouraged_field 2 0

let test_registry_lookup () =
  check Alcotest.bool "find known" true
    (Lint.Registry.find "e_rfc_dns_idn_a2u_unpermitted_unichar" <> None);
  check Alcotest.bool "find unknown" true (Lint.Registry.find "nonexistent" = None);
  (* Every Table 11 lint name exists in the registry. *)
  List.iter
    (fun name ->
      check Alcotest.bool name true (Lint.Registry.find name <> None))
    [ "w_rfc_ext_cp_explicit_text_not_utf8"; "w_cab_subject_common_name_not_in_san";
      "e_rfc_dns_idn_a2u_unpermitted_unichar";
      "e_subject_organization_not_printable_or_utf8";
      "e_subject_common_name_not_printable_or_utf8";
      "e_subject_locality_not_printable_or_utf8";
      "e_rfc_subject_dn_not_printable_characters";
      "e_subject_ou_not_printable_or_utf8";
      "e_subject_jurisdiction_locality_not_printable_or_utf8";
      "e_rfc_ext_cp_explicit_text_too_long";
      "e_subject_jurisdiction_state_not_printable_or_utf8";
      "e_rfc_ext_cp_explicit_text_ia5";
      "e_subject_jurisdiction_country_not_printable";
      "e_subject_state_not_printable_or_utf8";
      "e_rfc_subject_printable_string_badalpha";
      "w_community_subject_dn_trailing_whitespace";
      "e_subject_postal_code_not_printable_or_utf8";
      "e_subject_street_not_printable_or_utf8";
      "w_cab_subject_contain_extra_common_name";
      "e_subject_dn_serial_number_not_printable";
      "w_community_subject_dn_leading_whitespace";
      "e_rfc_subject_country_not_printable"; "e_rfc_dns_idn_malformed_unicode";
      "e_cab_dns_bad_character_in_label"; "e_ext_san_dns_contain_unpermitted_unichar" ]

(* --- per-flaw ground truth -------------------------------------------- *)

let issuer = List.hd Ctlog.Dataset.issuers

let cert_with_flaw seed flaw =
  let g = Ucrypto.Prng.create seed in
  let spec : Ctlog.Flaws.spec =
    {
      Ctlog.Flaws.subject =
        [ X509.Dn.atv X509.Attr.Country_name "DE";
          X509.Dn.atv X509.Attr.Locality_name "Berlin";
          X509.Dn.atv X509.Attr.Organization_name "Ground Truth GmbH";
          X509.Dn.atv X509.Attr.Common_name "gt.example.com" ];
      san = [ X509.General_name.Dns_name "gt.example.com" ];
      policies = [];
      crldp = [];
      not_before_form = None;
    }
  in
  Ctlog.Flaws.apply g spec flaw;
  let extensions =
    [ X509.Extension.subject_alt_name spec.Ctlog.Flaws.san ]
    @ (if spec.Ctlog.Flaws.policies = [] then []
       else [ X509.Extension.certificate_policies spec.Ctlog.Flaws.policies ])
    @
    if spec.Ctlog.Flaws.crldp = [] then []
    else [ X509.Extension.crl_distribution_points spec.Ctlog.Flaws.crldp ]
  in
  let kp = X509.Certificate.mock_keypair ~seed:"gt-ca" () in
  let tbs =
    X509.Certificate.make_tbs
      ~issuer:(X509.Dn.of_list [ (X509.Attr.Organization_name, "GT CA") ])
      ~subject:(X509.Dn.single spec.Ctlog.Flaws.subject)
      ~not_before:(Asn1.Time.make 2025 1 1)
      ~not_after:(Asn1.Time.make 2025 4 1)
      ?not_before_form:spec.Ctlog.Flaws.not_before_form
      ~spki:(X509.Certificate.keypair_spki kp)
      ~sig_alg:X509.Certificate.Oids.mock_signature ~extensions ()
  in
  X509.Certificate.sign kp tbs

let test_flaw_ground_truth () =
  (* Every flaw must trigger each of its expected lints, from the DER
     bytes alone, for several random draws. *)
  List.iter
    (fun flaw ->
      let expected = Ctlog.Flaws.expected_lints flaw in
      List.iter
        (fun seed ->
          let cert = cert_with_flaw seed flaw in
          (* Parse back from bytes: the linter sees only the wire form. *)
          let cert =
            match X509.Certificate.parse cert.X509.Certificate.der with
            | Ok c -> c
            | Error m -> Alcotest.failf "%s: reparse failed: %s" (Ctlog.Flaws.name flaw) (Faults.Error.to_string m)
          in
          let findings =
            Lint.Registry.noncompliant ~respect_effective_dates:false
              ~issued:(Asn1.Time.make 2025 1 1) cert
          in
          let names = List.map (fun (f : Lint.finding) -> f.Lint.lint.Lint.name) findings in
          List.iter
            (fun expected_lint ->
              if not (List.mem expected_lint names) then
                Alcotest.failf "flaw %s (seed %d): expected %s, got [%s]"
                  (Ctlog.Flaws.name flaw) seed expected_lint
                  (String.concat "; " names))
            expected)
        [ 1; 2; 3 ])
    Ctlog.Flaws.all

(* A certificate for the lints no flaw fixture fires: [subject] and
   [san] as given, plus extra [extensions]. *)
let custom_cert ?(serial = "\x05\x11") ?(extensions = []) subject san =
  let kp = X509.Certificate.mock_keypair ~seed:"detail-ca" () in
  let tbs =
    X509.Certificate.make_tbs ~serial
      ~issuer:(X509.Dn.of_list [ (X509.Attr.Organization_name, "Detail CA") ])
      ~subject:(X509.Dn.single subject)
      ~not_before:(Asn1.Time.make 2025 1 1) ~not_after:(Asn1.Time.make 2025 4 1)
      ~spki:(X509.Certificate.keypair_spki kp)
      ~sig_alg:X509.Certificate.Oids.mock_signature
      ~extensions:(X509.Extension.subject_alt_name san :: extensions)
      ()
  in
  X509.Certificate.sign kp tbs

let cn = X509.Dn.atv X509.Attr.Common_name "d.example.com"
let dns d = X509.General_name.Dns_name d

(* The detail strings of each lint whose pass path builds nothing,
   pinned on the fixture that fires it: (label, certificate, lint,
   details), recorded before the pass paths were rewritten. *)
let detail_fixtures =
  let flaw f () = cert_with_flaw 1 f in
  [ ("cn-not-in-san", flaw Ctlog.Flaws.Cn_not_in_san, "w_cab_subject_common_name_not_in_san",
     [ "CN \"gt.example.com\" not present in SAN" ]);
    ("duplicate-cn", flaw Ctlog.Flaws.Duplicate_cn, "e_subject_duplicate_attribute",
     [ "commonName appears 2 times" ]);
    ("unicode-dnsname", flaw Ctlog.Flaws.Unicode_dnsname, "e_ext_san_dns_contain_unpermitted_unichar",
     [ "dNSName \"caf\\195\\169.example.com\" contains U+00C3";
       "dNSName \"caf\\195\\169.example.com\" contains U+00A9" ]);
    ("unicode-dnsname", flaw Ctlog.Flaws.Unicode_dnsname, "e_ext_san_dnsname_not_ia5",
     [ "SAN dNSName dNSName byte 0xC3";
       "SAN dNSName dNSName byte 0xA9" ]);
    ("bad-dns-char", flaw Ctlog.Flaws.Bad_dns_char, "e_dnsname_contains_whitespace",
     [ "\"bad char.example.com\" contains whitespace";
       "\"bad char.example.com\" contains whitespace" ]);
    ("nonnfc-alabel", flaw Ctlog.Flaws.Nonnfc_alabel, "e_rfc_dns_idn_not_nfc",
     [ "label \"xn--ecole-6ed\" decodes to a non-NFC string";
       "label \"xn--ecole-6ed\" decodes to a non-NFC string" ]);
    ("malformed-alabel", flaw Ctlog.Flaws.Malformed_alabel, "e_rfc_dns_idn_malformed_unicode",
     [ "label \"xn--ab_c\": invalid punycode digit '_'";
       "label \"xn--ab_c\": invalid punycode digit '_'" ]);
    ("unpermitted-alabel", flaw Ctlog.Flaws.Unpermitted_alabel, "e_rfc_dns_idn_a2u_unpermitted_unichar",
     [ "label \"xn--shop-y76a\" decodes to unpermitted U+200B";
       "label \"xn--shop-y76a\" decodes to unpermitted U+200B" ]);
    ("control-char-in-dn", flaw Ctlog.Flaws.Control_char_in_dn, "e_rfc_subject_dn_not_printable_characters",
     [ "localityName contains U+001B" ]);
    ("control-char-in-dn", flaw Ctlog.Flaws.Control_char_in_dn, "e_utf8string_control_characters",
     [ "localityName UTF8String contains U+001B" ]);
    ("del-in-dn", flaw Ctlog.Flaws.Del_in_dn, "w_subject_dn_del_character",
     [ "localityName contains U+007F";
       "localityName contains U+007F" ]);
    ("bidi-in-cn", flaw Ctlog.Flaws.Bidi_in_cn, "w_subject_dn_bidi_controls",
     [ "commonName contains U+202E" ]);
    ("bidi-in-cn", flaw Ctlog.Flaws.Bidi_in_cn, "w_subject_dn_invisible_characters",
     [ "commonName contains U+202E" ]);
    ("replacement-char", flaw Ctlog.Flaws.Replacement_char, "w_subject_dn_replacement_character",
     [ "organizationName contains U+FFFD" ]);
    ("long-cn", flaw Ctlog.Flaws.Long_cn, "e_subject_common_name_max_length",
     [ "commonName has 88 characters (max 64)" ]);
    ("wrong-time-form", flaw Ctlog.Flaws.Wrong_time_form, "e_validity_time_wrong_form",
     [ "notBefore uses GeneralizedTime for a pre-2050 date" ]);
    ("deprecated-encoding", flaw Ctlog.Flaws.Deprecated_encoding, "e_subject_locality_not_printable_or_utf8",
     [ "localityName encoded as TeletexString" ]);
    ("bmp-odd-bytes", flaw Ctlog.Flaws.Bmp_odd_bytes, "e_subject_organization_not_printable_or_utf8",
     [ "organizationName encoded as BMPString" ]);
    ("mixed-ou",
     (fun () ->
       custom_cert
         [ X509.Dn.atv ~st:Asn1.Str_type.Printable_string X509.Attr.Organizational_unit_name "Ops";
           X509.Dn.atv ~st:Asn1.Str_type.Utf8_string X509.Attr.Organizational_unit_name "Dev"; cn ]
         [ dns "d.example.com" ]),
     "w_subject_attr_mixed_encodings",
     [ "organizationalUnitName uses mixed string types" ]);
    ("bad-wildcards",
     (fun () -> custom_cert [ cn ] [ dns "d.example.com"; dns "a*.example.com"; dns "*.*.example.com" ]),
     "e_dnsname_wildcard_malformed",
     [ "\"a*.example.com\" uses a malformed wildcard";
       "\"*.*.example.com\" uses a malformed wildcard" ]);
    ("aia-non-ascii",
     (fun () ->
       custom_cert [ cn ] [ dns "d.example.com" ]
         ~extensions:
           [ X509.Extension.authority_info_access
               [ (X509.Extension.Oids.ocsp, X509.General_name.Uri "http://ocsp.ex\xc3\xa4mple.com") ] ]),
     "e_ext_aia_location_not_ia5",
     [ "AIA accessLocation URI byte 0xC3";
       "AIA accessLocation URI byte 0xA4" ]);
    ("negative-serial",
     (fun () -> custom_cert ~serial:"\x80\x01" [ cn ] [ dns "d.example.com" ]),
     "e_serial_number_not_positive",
     [ "serial is zero or negative" ]);
    ("noncanonical-alabel",
     (fun () -> custom_cert [ cn ] [ dns "d.example.com"; dns "xn---ls8h.example.com" ]),
     "e_rfc_dns_idn_noncanonical_alabel",
     [ "label \"xn---ls8h\" is not canonical Punycode" ]) ]

let details_of lint cert =
  let cert =
    match X509.Certificate.parse cert.X509.Certificate.der with
    | Ok c -> c
    | Error e -> Alcotest.failf "%s: reparse failed: %s" lint (Faults.Error.to_string e)
  in
  match
    List.find
      (fun (f : Lint.finding) -> f.Lint.lint.Lint.name = lint)
      (Lint.Registry.run ~respect_effective_dates:false ~issued:(Asn1.Time.make 2025 1 1) cert)
  with
  | { Lint.status = Lint.Fail d | Lint.Warn d; _ } -> d
  | { Lint.status = Lint.Pass | Lint.Na; _ } -> []

let test_detail_strings () =
  List.iter
    (fun (label, cert, lint, expected) ->
      check (Alcotest.list Alcotest.string) (label ^ " " ^ lint) expected
        (details_of lint (cert ())))
    detail_fixtures

let test_clean_cert_compliant () =
  let kp = X509.Certificate.mock_keypair ~seed:"clean-ca" () in
  let tbs =
    X509.Certificate.make_tbs ~serial:"\x05\x11"
      ~issuer:(X509.Dn.of_list [ (X509.Attr.Organization_name, "Clean CA") ])
      ~subject:(X509.Dn.of_list [ (X509.Attr.Common_name, "ok.example.com") ])
      ~not_before:(Asn1.Time.make 2024 6 1) ~not_after:(Asn1.Time.make 2024 9 1)
      ~spki:(X509.Certificate.keypair_spki kp)
      ~sig_alg:X509.Certificate.Oids.mock_signature
      ~extensions:
        [ X509.Extension.subject_alt_name [ X509.General_name.Dns_name "ok.example.com" ] ]
      ()
  in
  let cert = X509.Certificate.sign kp tbs in
  let findings =
    Lint.Registry.noncompliant ~respect_effective_dates:false
      ~issued:(Asn1.Time.make 2024 6 1) cert
  in
  check (Alcotest.list Alcotest.string) "no findings" []
    (List.map (fun (f : Lint.finding) -> f.Lint.lint.Lint.name) findings)

let test_effective_dates () =
  let cert = cert_with_flaw 9 Ctlog.Flaws.Nonnfc_alabel in
  (* e_rfc_dns_idn_not_nfc became effective with RFC 8399 (2018). *)
  let dated =
    Lint.Registry.noncompliant ~issued:(Asn1.Time.make 2016 1 1) cert
  in
  check Alcotest.bool "2016 issuance: lint silent" true
    (not
       (List.exists
          (fun (f : Lint.finding) -> f.Lint.lint.Lint.name = "e_rfc_dns_idn_not_nfc")
          dated));
  let undated =
    Lint.Registry.noncompliant ~respect_effective_dates:false
      ~issued:(Asn1.Time.make 2016 1 1) cert
  in
  check Alcotest.bool "dates ignored: lint fires" true
    (List.exists
       (fun (f : Lint.finding) -> f.Lint.lint.Lint.name = "e_rfc_dns_idn_not_nfc")
       undated)

let test_include_new_ablation () =
  let cert = cert_with_flaw 4 Ctlog.Flaws.Unpermitted_alabel in
  let with_new = Lint.Registry.noncompliant ~issued:(Asn1.Time.make 2024 1 1) cert in
  let without_new =
    Lint.Registry.noncompliant ~include_new:false ~issued:(Asn1.Time.make 2024 1 1) cert
  in
  check Alcotest.bool "new lint catches" true
    (List.exists
       (fun (f : Lint.finding) ->
         f.Lint.lint.Lint.name = "e_rfc_dns_idn_a2u_unpermitted_unichar")
       with_new);
  check Alcotest.bool "excluded without new" true
    (List.for_all (fun (f : Lint.finding) -> not f.Lint.lint.Lint.is_new) without_new)

let test_severity_mapping () =
  check Alcotest.bool "must=error" true (Lint.severity_of_level Lint.Must = Lint.Error);
  check Alcotest.bool "must-not=error" true
    (Lint.severity_of_level Lint.Must_not = Lint.Error);
  check Alcotest.bool "should=warning" true
    (Lint.severity_of_level Lint.Should = Lint.Warning);
  (* Name prefixes agree with severity, except the Table 11 lint the
     paper itself names w_ while classing its violations as errors. *)
  List.iter
    (fun (l : Lint.t) ->
      if l.Lint.name <> "w_cab_subject_common_name_not_in_san" then begin
        let prefix = l.Lint.name.[0] in
        match (prefix, Lint.severity l) with
        | 'e', Lint.Error | 'w', Lint.Warning -> ()
        | _ -> Alcotest.failf "lint %s prefix/severity mismatch" l.Lint.name
      end)
    Lint.Registry.all

let test_explicit_text_lints () =
  let cert = cert_with_flaw 8 Ctlog.Flaws.Explicit_text_ia5 in
  let names =
    Lint.Registry.noncompliant ~issued:(Asn1.Time.make 2024 1 1) cert
    |> List.map (fun (f : Lint.finding) -> f.Lint.lint.Lint.name)
  in
  check Alcotest.bool "ia5 error" true (List.mem "e_rfc_ext_cp_explicit_text_ia5" names);
  check Alcotest.bool "not-utf8 warning" true
    (List.mem "w_rfc_ext_cp_explicit_text_not_utf8" names)

let test_ctx_helpers () =
  let cert = cert_with_flaw 2 Ctlog.Flaws.Unicode_dnsname in
  let ctx = Lint.Ctx.of_cert cert in
  check Alcotest.bool "san parsed" true
    (match ctx.Lint.Ctx.san with Some (Ok _) -> true | _ -> false);
  check Alcotest.bool "dns names include san" true (Lint.Ctx.dns_names ctx <> []);
  check Alcotest.bool "subject texts" true (List.length (Lint.Ctx.subject_texts ctx) >= 4)

(* Telemetry must track behavior exactly: after a linter run, the
   per-lint invocation counter deltas equal the number of lints whose
   check actually executed (everything not NA-gated), and the NA
   counters the gated remainder.  Counters are process-cumulative, so
   compare before/after snapshots. *)
let test_obs_instrumentation () =
  let cert = cert_with_flaw 21 Ctlog.Flaws.Cn_not_in_san in
  let issued = Asn1.Time.make 2016 6 1 in
  let snapshot () =
    Lint.Registry.obs_snapshot ()
    |> List.map (fun (o : Lint.Registry.lint_obs) ->
           (o.Lint.Registry.lint_name, o))
  in
  let before = snapshot () in
  let findings = Lint.Registry.run ~issued cert in
  let after = snapshot () in
  let delta field =
    List.fold_left2
      (fun acc (na, a) (nb, b) ->
        assert (na = nb);
        acc +. (field a -. field b))
      0.0 after before
  in
  (* A check may itself return Na (field absent), which still counts as
     an invocation — so the executed/gated split comes from the
     effective-date gate, not from finding statuses. *)
  let gated =
    List.length
      (List.filter
         (fun (l : Lint.t) -> Asn1.Time.(issued < l.Lint.effective_date))
         Lint.Registry.all)
  in
  let executed = List.length Lint.Registry.all - gated in
  check Alcotest.int "one finding per registered lint" 95 (List.length findings);
  check (Alcotest.float 0.0) "invocation deltas = applicable lints"
    (float_of_int executed)
    (delta (fun o -> o.Lint.Registry.invoked));
  check (Alcotest.float 0.0) "na deltas = date-gated lints"
    (float_of_int gated)
    (delta (fun o -> o.Lint.Registry.skipped_na));
  (* Per lint the delta is exactly one invocation or one NA, never both. *)
  List.iter2
    (fun (name, a) (_, b) ->
      let di = a.Lint.Registry.invoked -. b.Lint.Registry.invoked
      and dn = a.Lint.Registry.skipped_na -. b.Lint.Registry.skipped_na in
      if not ((di = 1.0 && dn = 0.0) || (di = 0.0 && dn = 1.0)) then
        Alcotest.failf "lint %s: invocation delta %g, na delta %g" name di dn)
    after before;
  (* Fail/warn hit counters track the findings of this run. *)
  let nc = List.filter Lint.is_noncompliant findings in
  check (Alcotest.float 0.0) "fail+warn deltas = noncompliant findings"
    (float_of_int (List.length nc))
    (delta (fun o -> o.Lint.Registry.failed +. o.Lint.Registry.warned))

(* The per-lint counters stay exact when worker domains share them: a
   pipeline pass bumps each lint's invocation counter once per
   certificate (the engine lints without date gating, so no NA skips),
   and its fail/warn counters once per certificate it flags — the same
   counts at --jobs 1 and --jobs 2, equal to linting the corpus
   directly. *)
let test_obs_counts_across_jobs () =
  let scale = 240 and seed = 4 in
  let counts () =
    List.map
      (fun (o : Lint.Registry.lint_obs) ->
        ( o.Lint.Registry.lint_name,
          ( o.Lint.Registry.invoked,
            o.Lint.Registry.failed,
            o.Lint.Registry.warned,
            o.Lint.Registry.skipped_na ) ))
      (Lint.Registry.obs_snapshot ())
  in
  let expected =
    let tally = Hashtbl.create 128 in
    for i = 0 to scale - 1 do
      let e = Ctlog.Dataset.generate_at ~seed i in
      List.iter
        (fun (f : Lint.finding) ->
          let name = f.Lint.lint.Lint.name in
          let fails, warns = Option.value ~default:(0, 0) (Hashtbl.find_opt tally name) in
          Hashtbl.replace tally name
            (match f.Lint.status with
            | Lint.Fail _ -> (fails + 1, warns)
            | Lint.Warn _ -> (fails, warns + 1)
            | Lint.Pass | Lint.Na -> (fails, warns)))
        (Lint.Registry.run ~respect_effective_dates:false ~issued:e.Ctlog.Dataset.issued
           e.Ctlog.Dataset.cert)
    done;
    List.map
      (fun (l : Lint.t) ->
        let fails, warns = Hashtbl.find tally l.Lint.name in
        (l.Lint.name, (float_of_int scale, float_of_int fails, float_of_int warns, 0.)))
      Lint.Registry.all
  in
  let delta_at jobs =
    let before = counts () in
    let t = Unicert.Pipeline.run ~scale ~seed ~jobs () in
    check Alcotest.int (Printf.sprintf "jobs=%d analyzed every certificate" jobs) scale
      t.Unicert.Pipeline.total;
    List.map2
      (fun (name, (i1, f1, w1, n1)) (_, (i0, f0, w0, n0)) ->
        (name, (i1 -. i0, f1 -. f0, w1 -. w0, n1 -. n0)))
      (counts ()) before
  in
  let show (name, (i, f, w, n)) = Printf.sprintf "%s %g/%g/%g/%g" name i f w n in
  let flagged =
    List.fold_left (fun acc (_, (_, f, w, _)) -> acc +. f +. w) 0. expected
  in
  check Alcotest.bool "the corpus has findings" true (flagged > 0.);
  List.iter
    (fun jobs ->
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "jobs=%d counter deltas" jobs)
        (List.map show expected)
        (List.map show (delta_at jobs)))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "registry counts match Table 1" `Quick test_registry_counts;
    Alcotest.test_case "telemetry tracks execution" `Quick test_obs_instrumentation;
    Alcotest.test_case "telemetry exact across jobs" `Quick test_obs_counts_across_jobs;
    Alcotest.test_case "registry lookups" `Quick test_registry_lookup;
    Alcotest.test_case "per-flaw ground truth" `Slow test_flaw_ground_truth;
    Alcotest.test_case "pass-path lints keep their details" `Quick test_detail_strings;
    Alcotest.test_case "clean cert is compliant" `Quick test_clean_cert_compliant;
    Alcotest.test_case "effective date gating" `Quick test_effective_dates;
    Alcotest.test_case "new-lint ablation" `Quick test_include_new_ablation;
    Alcotest.test_case "severity mapping" `Quick test_severity_mapping;
    Alcotest.test_case "explicit text lints" `Quick test_explicit_text_lints;
    Alcotest.test_case "ctx helpers" `Quick test_ctx_helpers;
  ]
