//! Capacity-query decoding, validation, and canonicalization.
//!
//! A query arrives as a JSON body (`POST /query`) or a query string
//! (`GET /query?...`). Both decoders funnel into the *same* hardened
//! flag-validation path the CLI uses ([`crate::cli`]): fields become a
//! [`Flags`] map, unknown fields are rejected with the CLI's
//! "did you mean" diagnostics, and probabilities / service mixes go
//! through `get_prob` / `service_from_flags`. The canonical rendering
//! of a validated query ([`Query::cache_key`]) is the daemon's cache
//! key, so two requests that mean the same configuration — whatever
//! their field order or number formatting — hit the same entry.

use crate::cli::{get, get_prob, service_from_flags, validate_flags, Flags};
use banyan_obs::json::JsonValue;
use banyan_sim::traffic::ServiceDist;

/// Fields a capacity query may carry (the serve-side "known flags").
pub const QUERY_FIELDS: &[&str] = &[
    "k",
    "stages",
    "p",
    "q",
    "m",
    "geometric-mu",
    "mix",
    "mode",
];

/// How the daemon should answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Drift-gated: analytic when the KS drift gauge is within
    /// threshold, simulation otherwise.
    Auto,
    /// Closed forms only; `422` when no analytic model covers the
    /// configuration.
    Analytic,
    /// Always simulate.
    Simulate,
}

impl Mode {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Auto => "auto",
            Mode::Analytic => "analytic",
            Mode::Simulate => "simulate",
        }
    }
}

/// A validated capacity query.
#[derive(Clone, Debug)]
pub struct Query {
    /// Switch arity `k`.
    pub k: u32,
    /// Number of stages `n`.
    pub stages: u32,
    /// Injection probability per input per cycle.
    pub p: f64,
    /// Hotspot fraction (0 = uniform traffic).
    pub q: f64,
    /// Message-size (service-time) distribution.
    pub service: ServiceDist,
    /// Answering mode.
    pub mode: Mode,
}

impl Query {
    /// Validates a flags map into a query. This is the single decode
    /// path behind JSON bodies, query strings, and (transitively) the
    /// CLI flags the daemon inherited.
    pub fn from_flags(flags: &Flags) -> Result<Query, String> {
        validate_flags(flags, QUERY_FIELDS)?;
        let k: u32 = get(flags, "k", 2)?;
        if k < 2 {
            return Err(format!("--k must be at least 2, got {k}"));
        }
        let stages: u32 = get(flags, "stages", 6)?;
        if stages == 0 {
            return Err("--stages must be at least 1".to_string());
        }
        let p = get_prob(flags, "p", 0.5)?;
        let q = get_prob(flags, "q", 0.0)?;
        let service = service_from_flags(flags)?;
        let mode = match flags.get("mode").map(String::as_str) {
            None | Some("auto") => Mode::Auto,
            Some("analytic") => Mode::Analytic,
            Some("simulate") => Mode::Simulate,
            Some(other) => {
                return Err(format!(
                    "--mode must be auto, analytic, or simulate, got '{other}'"
                ));
            }
        };
        let query = Query {
            k,
            stages,
            p,
            q,
            service,
            mode,
        };
        // Unstable configurations have no steady state: the closed
        // forms blow up and an infinite-buffer simulation never drains.
        // ρ = 1 exactly is rejected too (the paper's formulas divide by
        // 1 − ρ).
        if query.rho() >= 1.0 {
            return Err(format!(
                "offered load rho = p*E[m] = {} is not < 1; no steady state exists",
                query.rho()
            ));
        }
        Ok(query)
    }

    /// Decodes a JSON object body. Field names may use `_` or `-`
    /// (`geometric_mu` ≡ `geometric-mu`); values may be numbers,
    /// strings, or booleans. Duplicate fields are an error, mirroring
    /// the CLI's duplicate-flag rule.
    pub fn from_json(text: &str) -> Result<Query, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("invalid JSON body: {e}"))?;
        Query::from_value(&doc)
    }

    /// Decodes an already-parsed JSON object (one `/v1/batch` element).
    pub fn from_value(doc: &JsonValue) -> Result<Query, String> {
        Query::from_flags(&flags_from_value(doc)?)
    }

    /// Decodes a `k=2&p=0.5`-style query string (no percent-decoding —
    /// none of the field values need it).
    pub fn from_query_string(qs: &str) -> Result<Query, String> {
        Query::from_flags(&flags_from_query_string(qs)?)
    }

    /// Offered load `ρ = p · E[m]`.
    pub fn rho(&self) -> f64 {
        self.p * self.service.mean()
    }

    /// Canonical service rendering used in cache keys and responses.
    pub fn service_label(&self) -> String {
        match &self.service {
            ServiceDist::Constant(m) => format!("constant:{m}"),
            ServiceDist::Geometric(mu) => format!("geometric:{mu}"),
            ServiceDist::Mixed(sizes) => {
                let parts: Vec<String> =
                    sizes.iter().map(|(m, g)| format!("{m}:{g}")).collect();
                format!("mixed:{}", parts.join(","))
            }
        }
    }

    /// Canonical key for the answer cache: every field in fixed order,
    /// floats in shortest round-trip form. Requests that validate to
    /// the same configuration share a key regardless of field order,
    /// `_`/`-` spelling, or `0.50`-style formatting.
    pub fn cache_key(&self) -> String {
        format!(
            "k={};n={};p={};q={};service={};mode={}",
            self.k,
            self.stages,
            self.p,
            self.q,
            self.service_label(),
            self.mode.name(),
        )
    }
}

/// Converts a parsed JSON object into a [`Flags`] map: field names may
/// use `_` or `-`, values may be numbers, strings, or booleans, and
/// duplicate fields (post-rename) are an error — the same rules for
/// every JSON decode path (`/query`, `/v1/flow`, `/v1/batch` elements).
pub fn flags_from_value(doc: &JsonValue) -> Result<Flags, String> {
    let members = doc
        .as_object()
        .ok_or_else(|| "request body must be a JSON object".to_string())?;
    let mut flags = Flags::new();
    for (name, value) in members {
        let name = name.replace('_', "-");
        let rendered = match value {
            JsonValue::Str(s) => s.clone(),
            // `{}`-formatting an f64 is the shortest round-trip
            // rendering, so integers stay integral ("4", not "4.0")
            // and nothing is lost re-parsing.
            JsonValue::Num(n) => format!("{n}"),
            JsonValue::Bool(b) => b.to_string(),
            _ => {
                return Err(format!(
                    "field \"{name}\" must be a number, string, or boolean"
                ));
            }
        };
        if flags.insert(name.clone(), rendered).is_some() {
            return Err(format!("duplicate field \"{name}\""));
        }
    }
    Ok(flags)
}

/// Converts a `k=2&p=0.5`-style query string into a [`Flags`] map; a
/// pair without `=` becomes the boolean `"true"`.
pub fn flags_from_query_string(qs: &str) -> Result<Flags, String> {
    let mut flags = Flags::new();
    for pair in qs.split('&').filter(|s| !s.is_empty()) {
        let (name, value) = pair.split_once('=').unwrap_or((pair, "true"));
        if name.is_empty() {
            return Err(format!("bad query-string pair '{pair}'"));
        }
        if flags.insert(name.to_string(), value.to_string()).is_some() {
            return Err(format!("duplicate field \"{name}\""));
        }
    }
    Ok(flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_and_query_string_agree() {
        let a = Query::from_json(r#"{"k": 2, "stages": 6, "p": 0.5, "m": 1}"#).unwrap();
        let b = Query::from_query_string("k=2&stages=6&p=0.5&m=1").unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(a.k, 2);
        assert_eq!(a.stages, 6);
        assert_eq!(a.mode, Mode::Auto);
    }

    #[test]
    fn canonicalization_ignores_field_order_and_formatting() {
        let a = Query::from_json(r#"{"p": 0.50, "k": 4, "stages": 3}"#).unwrap();
        let b = Query::from_json(r#"{"k": 4.0, "stages": 3, "p": 0.5}"#).unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn underscore_fields_are_accepted() {
        let q = Query::from_json(r#"{"geometric_mu": 0.5, "p": 0.25}"#).unwrap();
        assert_eq!(q.service, ServiceDist::Geometric(0.5));
    }

    #[test]
    fn unknown_fields_get_cli_diagnostics() {
        let err = Query::from_json(r#"{"stage": 6}"#).unwrap_err();
        assert!(err.contains("did you mean --stages?"), "{err}");
    }

    #[test]
    fn invalid_values_are_rejected() {
        assert!(Query::from_json(r#"{"p": 1.5}"#).is_err());
        assert!(Query::from_json(r#"{"k": 1}"#).is_err());
        assert!(Query::from_json(r#"{"stages": 0}"#).is_err());
        assert!(Query::from_json(r#"{"geometric_mu": 0}"#).is_err());
        assert!(Query::from_json(r#"{"mix": "4:0.5,8:0.6"}"#).is_err());
        assert!(Query::from_json(r#"{"mode": "psychic"}"#).is_err());
        assert!(Query::from_json(r#"not json"#).is_err());
        assert!(Query::from_json(r#"[1,2]"#).is_err());
    }

    #[test]
    fn duplicate_fields_are_rejected() {
        let err = Query::from_json(r#"{"p": 0.5, "p": 0.6}"#).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let err = Query::from_query_string("p=0.5&p=0.6").unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn unstable_load_is_rejected() {
        // p=0.9 with m=2 gives rho=1.8.
        let err = Query::from_json(r#"{"p": 0.9, "m": 2}"#).unwrap_err();
        assert!(err.contains("steady state"), "{err}");
        // rho exactly 1 is rejected too.
        assert!(Query::from_json(r#"{"p": 1.0, "m": 1}"#).is_err());
    }

    #[test]
    fn service_labels_are_canonical() {
        let q = Query::from_json(r#"{"mix": "4:0.5,8:0.5", "p": 0.1}"#).unwrap();
        assert_eq!(q.service_label(), "mixed:4:0.5,8:0.5");
        let q = Query::from_query_string("m=3&p=0.2").unwrap();
        assert_eq!(q.service_label(), "constant:3");
    }
}
