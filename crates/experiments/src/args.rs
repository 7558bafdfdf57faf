//! The command-line front end of every binary in the workspace: one
//! `--flag value` walker ([`Flags`]) behind the figure binaries, `sweep`
//! (both its sweep and `merge-shards` forms) and the `fhs` CLI; their
//! exit conventions (status 2 for a bad command line, [`exit_on_err`];
//! status 1 for a failed write, [`write_file_or_exit`]); and the options the
//! figure binaries share ([`CommonArgs`]). No external dependency.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// A walker over command-line arguments (without the program name): the
/// caller takes each flag with [`next`](Iterator::next) and the flag's
/// value, when it has one, with [`value`](Flags::value),
/// [`parse`](Flags::parse) or [`choice`](Flags::choice). Every error
/// names the flag.
pub struct Flags(std::vec::IntoIter<String>);

impl Flags {
    /// Walks `args`.
    pub fn new(args: impl IntoIterator<Item = String>) -> Flags {
        Flags(args.into_iter().collect::<Vec<_>>().into_iter())
    }

    /// The argument after `flag`; `<flag> needs a value` when none is left.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The argument after `flag`, parsed; `<flag>: <err>` when it does not
    /// parse.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.value(flag)?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    }

    /// The argument after `flag`, lowercased and looked up in `table`;
    /// `unknown <flag without dashes> <value>` when it is not there.
    pub fn choice<T: Copy>(&mut self, flag: &str, table: &[(&str, T)]) -> Result<T, String> {
        let v = self.value(flag)?.to_lowercase();
        match table.iter().find(|(name, _)| *name == v) {
            Some(&(_, t)) => Ok(t),
            None => Err(format!("unknown {} {v}", flag.trim_start_matches('-'))),
        }
    }
}

impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// Unwraps `r`, or prints its error to stderr and exits with status 2 (a
/// bad command line).
pub fn exit_on_err<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// Writes `body` to `path`; on failure prints `failed to write <path>:
/// <error>` and exits with status 1.
pub fn write_file_or_exit(path: &Path, body: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// [`write_file_or_exit`], then notes `wrote <what>: <path> (<detail>)`
/// on stderr.
pub fn write_or_exit(path: &Path, body: impl AsRef<[u8]>, what: &str, detail: &str) {
    write_file_or_exit(path, body);
    eprintln!("wrote {what}: {} ({detail})", path.display());
}

/// Common options of every figure binary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommonArgs {
    /// Instances per experiment cell (the paper uses 5000).
    pub instances: usize,
    /// Base seed all per-instance seeds derive from.
    pub seed: u64,
    /// Directory to write per-figure CSV files into (skipped if `None`).
    pub csv_dir: Option<PathBuf>,
    /// Worker-thread override (defaults to all cores).
    pub workers: Option<usize>,
    /// Append per-cell engine counters and assign-latency percentiles to
    /// each figure's output (`--instrument`).
    pub instrument: bool,
    /// Append per-cell utilization aggregates — per-type utilization,
    /// imbalance, CoV, drain fraction — to each figure's output
    /// (`--utilization`).
    pub utilization: bool,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            instances: 100,
            seed: 0x5EED,
            csv_dir: None,
            workers: None,
            instrument: false,
            utilization: false,
        }
    }
}

impl CommonArgs {
    /// Parses `args` (without the program name). `default_instances` is
    /// figure-specific. Returns an error string naming the offending flag
    /// on bad input; `--help` also arrives as an `Err` carrying the usage
    /// text.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        default_instances: usize,
    ) -> Result<CommonArgs, String> {
        CommonArgs::parse_with(args, default_instances, |_, _| Ok(false))
    }

    /// [`parse`](CommonArgs::parse), handing every flag that is not a
    /// shared one to `extra` with the walker (to take the flag's value).
    /// `extra` returns whether it knew the flag.
    pub fn parse_with(
        args: impl IntoIterator<Item = String>,
        default_instances: usize,
        mut extra: impl FnMut(&str, &mut Flags) -> Result<bool, String>,
    ) -> Result<CommonArgs, String> {
        let mut out = CommonArgs {
            instances: default_instances,
            ..CommonArgs::default()
        };
        let mut flags = Flags::new(args);
        while let Some(flag) = flags.next() {
            match flag.as_str() {
                "--instances" | "-n" => out.instances = flags.parse("--instances")?,
                "--seed" => out.seed = flags.parse("--seed")?,
                "--csv-dir" => out.csv_dir = Some(flags.value("--csv-dir")?.into()),
                "--workers" => out.workers = Some(flags.parse("--workers")?),
                "--instrument" => out.instrument = true,
                "--utilization" => out.utilization = true,
                "--help" | "-h" => {
                    return Err(format!(
                        "usage: [--instances N] [--seed S] [--csv-dir DIR] [--workers W] \
                         [--instrument] [--utilization]\n\
                         defaults: --instances {default_instances} --seed 0x5EED\n\
                         --instrument appends per-cell engine counters and assign-latency \
                         percentiles; --utilization appends per-type utilization, imbalance \
                         and drain aggregates\n\
                         (the paper aggregates 5000 instances per cell: pass --instances 5000)"
                    ));
                }
                other => {
                    if !extra(other, &mut flags)? {
                        return Err(format!("unknown flag: {other}"));
                    }
                }
            }
        }
        if out.instances == 0 {
            return Err("--instances must be at least 1".into());
        }
        Ok(out)
    }

    /// Parses the process arguments, printing usage and exiting on error.
    pub fn from_env(default_instances: usize) -> CommonArgs {
        exit_on_err(CommonArgs::parse(
            std::env::args().skip(1),
            default_instances,
        ))
    }

    /// Writes `csv` as `<csv-dir>/<name>.csv` when a CSV directory was
    /// requested, creating the directory if needed.
    pub fn write_csv(&self, name: &str, csv: &str) -> std::io::Result<()> {
        if let Some(dir) = &self.csv_dir {
            std::fs::create_dir_all(dir)?;
            std::fs::write(dir.join(format!("{name}.csv")), csv)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_apply() {
        let a = CommonArgs::parse(strs(&[]), 300).unwrap();
        assert_eq!(a.instances, 300);
        assert_eq!(a.seed, 0x5EED);
        assert_eq!(a.csv_dir, None);
        assert_eq!(a.workers, None);
        assert!(!a.instrument);
        assert!(!a.utilization);
    }

    #[test]
    fn all_flags_parse() {
        let a = CommonArgs::parse(
            strs(&[
                "--instances",
                "5000",
                "--seed",
                "7",
                "--csv-dir",
                "/tmp/x",
                "--workers",
                "4",
                "--instrument",
                "--utilization",
            ]),
            300,
        )
        .unwrap();
        assert_eq!(a.instances, 5000);
        assert_eq!(a.seed, 7);
        assert_eq!(a.csv_dir.unwrap().to_str().unwrap(), "/tmp/x");
        assert_eq!(a.workers, Some(4));
        assert!(a.instrument);
        assert!(a.utilization);
    }

    #[test]
    fn short_n_flag() {
        let a = CommonArgs::parse(strs(&["-n", "12"]), 300).unwrap();
        assert_eq!(a.instances, 12);
    }

    #[test]
    fn errors_on_unknown_or_missing() {
        assert!(CommonArgs::parse(strs(&["--bogus"]), 1).is_err());
        assert!(CommonArgs::parse(strs(&["--seed"]), 1).is_err());
        assert!(CommonArgs::parse(strs(&["--instances", "nope"]), 1).is_err());
        assert!(CommonArgs::parse(strs(&["--instances", "0"]), 1).is_err());
    }

    #[test]
    fn flags_name_the_flag_in_every_error() {
        let sizes = [("small", 1), ("huge", 4)];
        let mut f = Flags::new(strs(&[
            "--k", "x", "--size", "HUGE", "--size", "xl", "--seed",
        ]));
        assert_eq!(f.next().as_deref(), Some("--k"));
        assert_eq!(
            f.parse::<usize>("--k").unwrap_err(),
            "--k: invalid digit found in string"
        );
        assert_eq!(f.next().as_deref(), Some("--size"));
        assert_eq!(f.choice("--size", &sizes), Ok(4));
        assert_eq!(f.next().as_deref(), Some("--size"));
        assert_eq!(f.choice("--size", &sizes).unwrap_err(), "unknown size xl");
        assert_eq!(f.next().as_deref(), Some("--seed"));
        assert_eq!(f.value("--seed").unwrap_err(), "--seed needs a value");
        assert_eq!(f.next(), None);
    }

    #[test]
    fn parse_with_hands_other_flags_to_extra() {
        let mut metrics_out = None;
        let args = strs(&["--seed", "3", "--metrics-out", "m.jsonl", "-n", "2"]);
        let a = CommonArgs::parse_with(args, 9, |flag, flags| {
            if flag != "--metrics-out" {
                return Ok(false);
            }
            metrics_out = Some(flags.value(flag)?);
            Ok(true)
        })
        .unwrap();
        assert_eq!((a.seed, a.instances), (3, 2));
        assert_eq!(metrics_out.as_deref(), Some("m.jsonl"));
        let err = CommonArgs::parse_with(strs(&["--metrics-out"]), 9, |flag, flags| {
            flags.value(flag).map(|_| true)
        });
        assert_eq!(err.unwrap_err(), "--metrics-out needs a value");
        let err = CommonArgs::parse(strs(&["--bogus"]), 9).unwrap_err();
        assert_eq!(err, "unknown flag: --bogus");
    }

    #[test]
    fn help_mentions_the_paper_count() {
        let err = CommonArgs::parse(strs(&["--help"]), 111).unwrap_err();
        assert!(err.contains("5000"));
        assert!(err.contains("111"));
    }

    #[test]
    fn write_csv_is_noop_without_dir() {
        let a = CommonArgs::parse(strs(&[]), 1).unwrap();
        a.write_csv("x", "a,b\n").unwrap(); // must not create anything
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join(format!("fhs-args-test-{}", std::process::id()));
        let a = CommonArgs::parse(strs(&["--csv-dir", dir.to_str().unwrap()]), 1).unwrap();
        a.write_csv("t", "a,b\n1,2\n").unwrap();
        let content = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
