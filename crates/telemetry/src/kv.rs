//! The one `key=value` grammar behind every `MOAT_*` spec and
//! checkpoint record.
//!
//! * [`pairs`] tokenizes a comma spec (`MOAT_FAULTS`,
//!   `MOAT_FLEET_FAULTS`, `MOAT_RECOVERY`, `MOAT_IO_FAULTS`,
//!   `MOAT_TELEMETRY`); [`num`], [`rate`] and [`choice`] check its
//!   values and [`unknown`] words the unknown-key error, so every spec
//!   rejects the same forms with the same wording.
//! * [`from_env`] reads a variable and prefixes every error with its
//!   name, so an exit-2 message says which variable is wrong.
//! * [`Record`] reads the whitespace `key=value` lines of the fleet and
//!   arena checkpoint stores.

use std::fmt::Display;
use std::str::FromStr;

/// Splits a comma spec into `(key, value)` pairs, in order. Tokens and
/// values are trimmed, empty tokens skipped, and `-` in keys becomes
/// `_`. A token without `=` is an error, and so is a key given twice
/// (after that normalisation): a repeated key must not silently
/// override the first, or `seu=1e-3,seu=0` runs unfaulted while it
/// looks armed. `what` names the grammar in the error.
pub fn pairs<'a>(what: &str, spec: &'a str) -> Result<Vec<(String, &'a str)>, String> {
    let mut out: Vec<(String, &'a str)> = Vec::new();
    for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("{what} token `{token}` is not key=value"))?;
        let key = key.trim().replace('-', "_");
        if out.iter().any(|(k, _)| *k == key) {
            return Err(format!("{what} key `{key}` is given twice"));
        }
        out.push((key, value.trim()));
    }
    Ok(out)
}

/// The unknown-key error of grammar `what`.
pub fn unknown(what: &str, key: &str) -> String {
    format!("unknown {what} key `{key}`")
}

/// Parses `value` as a number (or any [`FromStr`] type); the error
/// names `key=value`.
pub fn num<T: FromStr>(key: &str, value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e| format!("`{key}={value}`: {e}"))
}

/// Parses `value` as a probability in `[0, 1]` (NaN is rejected too).
pub fn rate(key: &str, value: &str) -> Result<f64, String> {
    let rate: f64 = num(key, value).map_err(|e| format!("rate {e}"))?;
    if (0.0..=1.0).contains(&rate) {
        Ok(rate)
    } else {
        Err(format!("rate `{key}={value}` outside [0, 1]"))
    }
}

/// Maps `value` to one of `options` by exact token; the error names
/// `what`, the value and every accepted token.
pub fn choice<T: Copy>(what: &str, value: &str, options: &[(&str, T)]) -> Result<T, String> {
    match options.iter().find(|(token, _)| *token == value) {
        Some(&(_, v)) => Ok(v),
        None => {
            let tokens: Vec<&str> = options.iter().map(|(token, _)| *token).collect();
            Err(format!("{what} `{value}` is not {}", tokens.join("|")))
        }
    }
}

/// The raw value of `var` (`None` when unset), for a variable with its
/// own blank-value rule. A non-Unicode value is an error naming `var`.
pub fn env_value(var: &str) -> Result<Option<String>, String> {
    match std::env::var(var) {
        Ok(value) => Ok(Some(value)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err(format!("{var} is set but not valid Unicode"))
        }
    }
}

/// Reads `var` and parses it with `parse`: `None` when unset or blank,
/// and every error prefixed with `var: `.
pub fn from_env<T>(
    var: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match env_value(var)? {
        Some(value) if !value.trim().is_empty() => {
            parse(&value).map(Some).map_err(|e| format!("{var}: {e}"))
        }
        _ => Ok(None),
    }
}

/// One whitespace-separated `key=value` checkpoint record. A missing or
/// malformed field reads as `None`, so a corrupt record re-runs its cell.
#[derive(Debug, Clone)]
pub struct Record<'a> {
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Record<'a> {
    /// Splits `line` into fields; `None` if a token has no `=` or a key
    /// repeats.
    pub fn parse(line: &'a str) -> Option<Record<'a>> {
        let mut fields: Vec<(&'a str, &'a str)> = Vec::new();
        for token in line.split_whitespace() {
            let (key, value) = token.split_once('=')?;
            if fields.iter().any(|(k, _)| *k == key) {
                return None;
            }
            fields.push((key, value));
        }
        Some(Record { fields })
    }

    /// The raw value of `key`.
    pub fn raw(&self, key: &str) -> Option<&'a str> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// The value of `key` parsed as `T`.
    pub fn get<T: FromStr>(&self, key: &str) -> Option<T> {
        self.raw(key)?.parse().ok()
    }

    /// The value of `key` read as hex (how records carry `f64::to_bits`).
    pub fn hex(&self, key: &str) -> Option<u64> {
        u64::from_str_radix(self.raw(key)?, 16).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_trim_skip_empty_and_normalise_keys() {
        let p = pairs("demo", " a-b = 1 ,, c=x=y , d= ").unwrap();
        assert_eq!(
            p,
            vec![
                ("a_b".to_string(), "1"),
                ("c".to_string(), "x=y"),
                ("d".to_string(), "")
            ]
        );
        assert!(pairs("demo", "").unwrap().is_empty());
        assert!(pairs("demo", " , ,").unwrap().is_empty());
    }

    #[test]
    fn pairs_reject_missing_equals_and_repeated_keys() {
        let e = pairs("demo", "a=1,b").unwrap_err();
        assert_eq!(e, "demo token `b` is not key=value");
        let e = pairs("demo", "a=1,a=2").unwrap_err();
        assert_eq!(e, "demo key `a` is given twice");
        assert!(
            pairs("demo", "drop-rfm=1,drop_rfm=0").is_err(),
            "repetition is judged after normalisation"
        );
    }

    #[test]
    fn value_checks_share_one_wording() {
        assert_eq!(rate("seu", "0.5"), Ok(0.5));
        assert_eq!(rate("seu", "0"), Ok(0.0));
        assert_eq!(rate("seu", "1"), Ok(1.0));
        assert_eq!(rate("seu", "2").unwrap_err(), "rate `seu=2` outside [0, 1]");
        assert!(rate("seu", "-0.1").is_err());
        assert!(rate("seu", "NaN").is_err());
        assert!(rate("seu", "x").unwrap_err().starts_with("rate `seu=x`: "));
        assert_eq!(num::<u64>("seed", "7"), Ok(7));
        assert!(num::<u64>("seed", "-1").is_err());
        assert_eq!(
            choice("mode", "on", &[("on", true), ("off", false)]),
            Ok(true)
        );
        assert_eq!(
            choice("mode", "yes", &[("on", true), ("off", false)]).unwrap_err(),
            "mode `yes` is not on|off"
        );
        assert_eq!(unknown("demo", "k"), "unknown demo key `k`");
    }

    #[test]
    fn env_reader_contract() {
        // A variable no other test touches, so setting it cannot race.
        let var = "MOAT_KV_TEST_ENV_READER";
        let parse = |s: &str| num::<u32>("value", s.trim());
        std::env::remove_var(var);
        assert_eq!(from_env(var, parse), Ok(None), "unset");
        std::env::set_var(var, "  ");
        assert_eq!(from_env(var, parse), Ok(None), "blank");
        assert_eq!(
            env_value(var),
            Ok(Some("  ".to_string())),
            "raw keeps blank"
        );
        std::env::set_var(var, " 12 ");
        assert_eq!(from_env(var, parse), Ok(Some(12)));
        std::env::set_var(var, "x");
        let e = from_env(var, parse).unwrap_err();
        assert!(e.starts_with(&format!("{var}: ")), "prefixed: {e}");
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            std::env::set_var(var, std::ffi::OsString::from_vec(vec![0x66, 0xFF]));
            let e = from_env(var, parse).unwrap_err();
            assert_eq!(e, format!("{var} is set but not valid Unicode"));
        }
        std::env::remove_var(var);
    }

    #[test]
    fn record_reader_reads_fields_in_any_order() {
        let r = Record::parse("b=ff a=7 flag=true empty=").unwrap();
        assert_eq!(r.get::<u64>("a"), Some(7));
        assert_eq!(r.hex("b"), Some(255));
        assert_eq!(r.get::<bool>("flag"), Some(true));
        assert_eq!(r.raw("empty"), Some(""));
        assert_eq!(r.raw("missing"), None);
        assert_eq!(r.get::<u64>("b"), None, "not decimal");
        assert!(Record::parse("a=1 junk").is_none(), "token without =");
        assert!(Record::parse("a=1 a=1").is_none(), "repeated key");
    }
}
