//! Where a result came from: host, toolchain, commit, features and the
//! workload settings. Timings from different host fingerprints are not
//! comparable, and `agree` refuses to compare them.

use nss_obs::export::json_escape;

/// The host and build a result was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git describe --always --dirty` ("unknown" outside a repository).
    pub git_describe: String,
    /// Cargo features of this build.
    pub features: Vec<&'static str>,
    /// Whether the program's own obs instrumentation is compiled in.
    pub obs_enabled: bool,
}

impl Provenance {
    /// Collects the provenance of this process.
    pub fn collect() -> Provenance {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|rest| rest.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc,
            git_describe: nss_obs::manifest::git_describe(),
            features: if cfg!(feature = "obs") {
                vec!["obs"]
            } else {
                Vec::new()
            },
            obs_enabled: nss_obs::enabled(),
        }
    }

    /// What must match for two timings to be comparable: cores, CPU,
    /// compiler and features (not the commit, which is what a comparison
    /// usually varies).
    pub fn fingerprint(&self) -> String {
        format!(
            "nproc={}; cpu={}; {}; features=[{}]",
            self.nproc,
            self.cpu_model,
            self.rustc,
            self.features.join(",")
        )
    }

    /// The block as a JSON object, with the seed and workload settings.
    pub fn to_json(&self, seed: u64, settings: &[(String, String)]) -> String {
        let settings = settings
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"nproc\":{},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"git_describe\":\"{}\",\
             \"features\":[{}],\"obs_enabled\":{},\"fingerprint\":\"{}\",\"seed\":{seed},\
             \"settings\":{{{settings}}}}}",
            self.nproc,
            json_escape(&self.cpu_model),
            json_escape(&self.rustc),
            json_escape(&self.git_describe),
            self.features
                .iter()
                .map(|f| format!("\"{f}\""))
                .collect::<Vec<_>>()
                .join(","),
            self.obs_enabled,
            json_escape(&self.fingerprint()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_is_valid_json_with_fingerprint() {
        let p = Provenance {
            nproc: 2,
            cpu_model: "Test \"CPU\"".to_string(),
            rustc: "rustc 1.95.0".to_string(),
            git_describe: "abc123".to_string(),
            features: vec!["obs"],
            obs_enabled: true,
        };
        let json = p.to_json(2005, &[("runs".to_string(), "30".to_string())]);
        let doc = nss_obs::jsonval::Json::parse(&json).expect("valid JSON");
        assert_eq!(
            doc.get("fingerprint").and_then(|v| v.as_str()),
            Some("nproc=2; cpu=Test \"CPU\"; rustc 1.95.0; features=[obs]")
        );
        assert_eq!(doc.get("seed").and_then(|v| v.as_f64()), Some(2005.0));
        let settings = doc.get("settings").expect("settings");
        assert_eq!(settings.get("runs").and_then(|v| v.as_str()), Some("30"));
    }
}
