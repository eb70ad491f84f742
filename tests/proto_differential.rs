//! Differential test of `wbd`'s request decoder.
//!
//! `proto::parse_request` reads a line in one pass and decodes the
//! `updates` batch without building a `Json` tree for it. The reference
//! here is the tree path: `Json::parse` of the whole line, then field
//! extraction over the tree. For every generated line both must return the
//! same `Result`: the same `Request`, or the same error kind and message.
//!
//! The lines cover bare items and `[item,delta]` pairs (range limits,
//! leading zeros, negative zero), ill-typed and malformed elements, JSON
//! whitespace between every two tokens, shuffled member order, duplicate
//! `cmd`/`tenant`/`updates` members, extra members, escaped tenant
//! strings, non-ingest commands that carry a malformed `updates` member,
//! non-object lines, and every truncation of valid lines.

use wb_daemon::json::Json;
use wb_daemon::proto::{parse_request, ErrorKind, HelloParams, ProtoError, Request};
use wb_engine::Update;

/// The tree path: parse the whole line, then read the fields.
fn reference(line: &str) -> Result<Request, ProtoError> {
    let bad = |msg: String| ProtoError::new(ErrorKind::BadRequest, msg);
    let v = Json::parse(line).map_err(|e| bad(format!("malformed JSON: {e}")))?;
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field 'cmd'".to_string()))?;
    let tenant_of = |v: &Json| -> Result<String, ProtoError> {
        match v.get("tenant").and_then(Json::as_str) {
            Some(t) if !t.is_empty() => Ok(t.to_string()),
            _ => Err(bad("missing non-empty string field 'tenant'".to_string())),
        }
    };
    let u64_field = |key: &str, msg: &str| -> Result<Option<u64>, ProtoError> {
        match v.get(key) {
            None => Ok(None),
            Some(x) => x.as_u64().map(Some).ok_or_else(|| bad(msg.to_string())),
        }
    };
    match cmd {
        "hello" => {
            let tenant = tenant_of(&v)?;
            let alg = v
                .get("alg")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("hello needs a string field 'alg'".to_string()))?
                .to_string();
            let seed = u64_field("seed", "'seed' must be a u64")?;
            let n = u64_field("n", "'n' must be a u64")?;
            let eps = match v.get("eps") {
                None => None,
                Some(Json::Float(x)) => Some(*x),
                Some(Json::Int(i)) => Some(*i as f64),
                Some(_) => return Err(bad("'eps' must be a number".to_string())),
            };
            let shards = match v.get("shards") {
                None => None,
                Some(x) => Some(
                    x.as_u64()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| bad("'shards' must be a u64 >= 1".to_string()))?
                        as usize,
                ),
            };
            Ok(Request::Hello {
                tenant,
                alg,
                seed,
                params: HelloParams { n, eps, shards },
            })
        }
        "ingest" => {
            let tenant = tenant_of(&v)?;
            let raw = v
                .get("updates")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("ingest needs an array field 'updates'".to_string()))?;
            let mut updates = Vec::with_capacity(raw.len());
            for (i, u) in raw.iter().enumerate() {
                updates.push(reference_update(u).map_err(|e| bad(format!("updates[{i}]: {e}")))?);
            }
            Ok(Request::Ingest { tenant, updates })
        }
        "query" => Ok(Request::Query {
            tenant: tenant_of(&v)?,
        }),
        "snapshot-stats" => Ok(Request::SnapshotStats {
            tenant: tenant_of(&v)?,
        }),
        "snapshot" => {
            let tenant = tenant_of(&v)?;
            let path = match v.get("path") {
                None => None,
                Some(p) => Some(
                    p.as_str()
                        .filter(|p| !p.is_empty())
                        .ok_or_else(|| bad("'path' must be a non-empty string".to_string()))?
                        .to_string(),
                ),
            };
            Ok(Request::Snapshot { tenant, path })
        }
        "restore" => match v.get("path").and_then(Json::as_str) {
            Some(p) if !p.is_empty() => Ok(Request::Restore {
                path: p.to_string(),
            }),
            _ => Err(bad(
                "restore needs a non-empty string field 'path'".to_string()
            )),
        },
        "metrics" => Ok(Request::Metrics),
        "top" => Ok(Request::Top),
        "bye" => Ok(Request::Bye),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(bad(format!(
            "unknown command '{other}' (known: hello, ingest, query, snapshot-stats, \
             snapshot, restore, metrics, top, bye, shutdown)"
        ))),
    }
}

fn reference_update(u: &Json) -> Result<Update, String> {
    match u {
        Json::Int(_) => u
            .as_u64()
            .map(Update::Insert)
            .ok_or_else(|| "bare update must be a non-negative u64 item".to_string()),
        Json::Arr(pair) if pair.len() == 2 => {
            let item = pair[0]
                .as_u64()
                .ok_or_else(|| "turnstile item must be a u64".to_string())?;
            let delta = pair[1]
                .as_i64()
                .ok_or_else(|| "turnstile delta must be an i64".to_string())?;
            Ok(Update::Turnstile { item, delta })
        }
        _ => Err("update must be ITEM or [ITEM, DELTA]".to_string()),
    }
}

/// SplitMix64: a small seeded generator, so every run sees the same lines.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }

    /// JSON whitespace, usually none.
    fn ws(&mut self) -> &'static str {
        if self.below(3) > 0 {
            return "";
        }
        self.pick(&[" ", "\t", "\r\n", "  \n ", "\r"])
    }

    fn item(&mut self) -> String {
        match self.below(8) {
            0 => "18446744073709551615".to_string(),
            1 => format!("00{}", self.below(100)),
            2 => "0".to_string(),
            3 => (u64::MAX - self.next() % 1000).to_string(),
            _ => (self.next() % 100_000).to_string(),
        }
    }

    fn delta(&mut self) -> String {
        match self.below(8) {
            0 => "-9223372036854775808".to_string(),
            1 => "9223372036854775807".to_string(),
            2 => "-0".to_string(),
            3 => "0".to_string(),
            _ => (self.next() as i64 % 1000).to_string(),
        }
    }

    /// One `updates` element; usually well-formed, sometimes anything the
    /// fast path must hand back to the tree path.
    fn element(&mut self) -> String {
        if self.below(40) == 0 {
            return self
                .pick(&[
                    "18446744073709551616",
                    "99999999999999999999999",
                    "[1,9223372036854775808]",
                    "[1,-9223372036854775809]",
                    "[18446744073709551616,1]",
                    "-4",
                    "1e3",
                    "1.0",
                    "1E-2",
                    "[1.5,2]",
                    "[1,2e0]",
                    "+5",
                    "-",
                    "1-2",
                    "\"five\"",
                    "null",
                    "true",
                    "{\"a\":1}",
                    "[1]",
                    "[1,2,3]",
                    "[[1,2]]",
                    "[]",
                    "[-1,2]",
                    "x",
                    "",
                    "[1,,2]",
                    "[1 2]",
                ])
                .to_string();
        }
        if self.below(2) == 0 {
            self.item()
        } else {
            let (a, b, c, d) = (self.ws(), self.ws(), self.ws(), self.ws());
            format!("[{a}{}{b},{c}{}{d}]", self.item(), self.delta())
        }
    }

    fn updates(&mut self) -> String {
        match self.below(30) {
            0 => {
                return self
                    .pick(&["\"nope\"", "17", "null", "{\"a\":[1]}"])
                    .to_string()
            }
            1 => return format!("[{}]", self.ws()),
            _ => {}
        }
        let len = self.below(12) + 1;
        let mut out = format!("[{}", self.ws());
        for i in 0..len {
            if i > 0 {
                let ws = self.ws();
                out.push_str(ws);
                out.push(',');
            }
            let (ws, element) = (self.ws(), self.element());
            out.push_str(ws);
            out.push_str(&element);
        }
        let ws = self.ws();
        out.push_str(ws);
        out.push(']');
        out
    }

    fn tenant(&mut self) -> String {
        self.pick(&[
            "\"t1\"",
            "\"t\\u0031\"",
            "\"a\\\"b\\\\c\"",
            "\"caf\u{e9}\"",
            "\"\\ud83d\\ude00\"",
            "\"\"",
            "7",
            "\"tab\\there\"",
        ])
        .to_string()
    }

    fn member(&mut self, key: &str) -> (String, String) {
        let value = match key {
            "cmd" => self
                .pick(&[
                    "\"ingest\"",
                    "\"ingest\"",
                    "\"ingest\"",
                    "\"query\"",
                    "\"hello\"",
                    "\"snapshot-stats\"",
                    "\"snapshot\"",
                    "\"restore\"",
                    "\"metrics\"",
                    "\"frobnicate\"",
                    "1",
                ])
                .to_string(),
            "tenant" => self.tenant(),
            "updates" => self.updates(),
            "alg" => "\"misra_gries\"".to_string(),
            "seed" => self.pick(&["7", "-1", "1.5"]).to_string(),
            "eps" => self.pick(&["0.25", "1", "\"x\""]).to_string(),
            "path" => self.pick(&["\"/tmp/x\"", "\"\"", "17"]).to_string(),
            _ => self
                .pick(&["null", "{\"a\":[1,{\"b\":2}]}", "1.5", "\"x\"", "[[[]]]"])
                .to_string(),
        };
        let key = match key {
            "updates" if self.below(10) == 0 => "upd\\u0061tes",
            key => key,
        };
        (format!("\"{key}\""), value)
    }

    /// A request object: the usual members plus duplicates and extras, in
    /// shuffled order, with whitespace around every token.
    fn line(&mut self) -> String {
        let mut keys = vec!["cmd", "tenant", "updates"];
        for _ in 0..self.below(4) {
            let extra = self.pick(&[
                "updates", "updates", "tenant", "cmd", "extra", "alg", "seed", "eps", "path",
            ]);
            keys.push(extra);
        }
        if self.below(20) == 0 {
            keys.remove(self.below(keys.len()));
        }
        for i in (1..keys.len()).rev() {
            keys.swap(i, self.below(i + 1));
        }
        let mut out = format!("{}{{", self.ws());
        for (i, key) in keys.iter().enumerate() {
            let (key, value) = self.member(key);
            let ws: Vec<&str> = (0..4).map(|_| self.ws()).collect();
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}{key}{}:{}{value}{}",
                ws[0], ws[1], ws[2], ws[3]
            ));
        }
        out.push('}');
        let ws = self.ws();
        out.push_str(ws);
        out
    }
}

fn check(line: &str) {
    assert_eq!(parse_request(line), reference(line), "line {line:?}");
}

#[test]
fn generated_lines_decode_like_the_tree_path() {
    let mut g = Gen(0x5eed);
    let (mut ingests, mut errors) = (0, 0);
    for _ in 0..20_000 {
        let line = g.line();
        check(&line);
        match reference(&line) {
            Ok(Request::Ingest { .. }) => ingests += 1,
            Err(_) => errors += 1,
            Ok(_) => {}
        }
    }
    // The generator must reach both sides of the comparison often.
    assert!(ingests > 2_000, "only {ingests} accepted ingests");
    assert!(errors > 2_000, "only {errors} refused lines");
}

#[test]
fn non_ingest_commands_ignore_a_malformed_updates_member() {
    for line in [
        r#"{"cmd":"query","tenant":"t","updates":[1.5,"x",{"a":1}]}"#,
        r#"{"cmd":"metrics","updates":"nope"}"#,
        r#"{"cmd":"query","updates":[18446744073709551616],"tenant":"t"}"#,
        r#"{"cmd":"hello","tenant":"t","alg":"ams_f2","updates":[[1,2,3]]}"#,
        // A syntax error inside the ignored member is still an error.
        r#"{"cmd":"metrics","updates":[1,}"#,
        r#"{"cmd":"metrics","updates":[1,2"#,
    ] {
        check(line);
    }
}

#[test]
fn non_object_lines_decode_like_the_tree_path() {
    for line in [
        "",
        "   ",
        "[1,2]",
        "\"ingest\"",
        "17",
        "nul",
        "null",
        "{",
        "}",
        "{}",
        " {} x",
        "not json",
    ] {
        check(line);
    }
}

#[test]
fn every_truncation_of_a_valid_line_decodes_like_the_tree_path() {
    let mut g = Gen(0x7a11);
    let mut lines = vec![
        r#"{"cmd":"ingest","tenant":"t1","updates":[5,[9,-2],[3,4],18446744073709551615]}"#
            .to_string(),
        "{ \"updates\" : [ [ 1 , -9223372036854775808 ] ,\t007 ] , \"cmd\" : \"ingest\" , \"tenant\" : \"caf\u{e9}\\u0031\" }"
            .to_string(),
        r#"{"cmd":"hello","tenant":"t","alg":"count_min","seed":3,"eps":0.5}"#.to_string(),
    ];
    while lines.len() < 40 {
        let line = g.line();
        if matches!(reference(&line), Ok(Request::Ingest { .. })) {
            lines.push(line);
        }
    }
    for line in &lines {
        for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
            check(&line[..end]);
        }
    }
}
