//! Minimal flag parsing: `--flag value` pairs plus positional operands.

use std::collections::HashMap;

#[derive(Debug, Clone, Default)]
pub struct Args {
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{name} expects a value"))?;
                if out.flags.insert(name.to_string(), value.clone()).is_some() {
                    return Err(format!("--{name} given twice"));
                }
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// Fails naming the first flag (in name order) that appears in none of
    /// the `known` space-separated lists, so a stale or misspelled flag is
    /// never silently ignored.
    pub fn reject_unknown(&self, cmd: &str, known: &[&str]) -> Result<(), String> {
        let mut unknown: Vec<&str> = self
            .flags
            .keys()
            .map(String::as_str)
            .filter(|f| !known.iter().any(|list| list.split(' ').any(|k| k == *f)))
            .collect();
        unknown.sort_unstable();
        match unknown.first() {
            None => Ok(()),
            Some(f) => Err(format!("{cmd}: unknown flag --{f}")),
        }
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required --{name}"))
    }

    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: bad number \"{v}\"")),
        }
    }

    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: bad number \"{v}\"")),
        }
    }

    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: bad number \"{v}\"")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = Args::parse(&argv("design.v --pc pc --workers 4 extra")).unwrap();
        assert_eq!(a.positional, vec!["design.v", "extra"]);
        assert_eq!(a.get("pc"), Some("pc"));
        assert_eq!(a.get_usize("workers", 1).unwrap(), 4);
        assert_eq!(a.get_usize("missing", 7).unwrap(), 7);
        assert_eq!(a.get_f64("missing-f", 0.5).unwrap(), 0.5);
        assert!(a.require("nope").is_err());
    }

    #[test]
    fn rejects_malformed() {
        assert!(Args::parse(&argv("--dangling")).is_err());
        assert!(Args::parse(&argv("--x 1 --x 2")).is_err());
        let a = Args::parse(&argv("--workers abc")).unwrap();
        assert!(a.get_usize("workers", 1).is_err());
    }
}
