//! Run manifests: machine-readable provenance for every `results/` batch.
//!
//! A [`RunManifest`] answers "which code, which configuration, and which
//! seed produced this CSV?" — the question a production sweep service (or a
//! reviewer re-checking a figure) asks first. It records a config
//! fingerprint, the RNG master seed, `git describe` of the working tree,
//! total and per-command wall time, an FNV-64 content hash per emitted
//! artifact, and (in instrumented builds) a counter snapshot. Serialized
//! as hand-rolled JSON next to the artifacts it describes.

use crate::export::json_escape;
use crate::registry::Registry;
use std::fmt::Write as _;
use std::path::Path;

/// Manifest schema version; bump on breaking shape changes.
pub const SCHEMA_VERSION: u32 = 1;

/// FNV-1a 64-bit hash — the workspace's one cheap content fingerprint:
/// artifact hashes here, trace digests, and the query caches' shard keys.
/// (`nss-model`'s seed derivation hashes stream labels with a different
/// multiplier and is not this function.)
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `git describe --always --dirty`, or `"unknown"` outside a repo / without
/// a git binary. Never fails.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One emitted artifact: path (relative to the manifest), size, and hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Path as recorded by the producer.
    pub path: String,
    /// File size in bytes.
    pub bytes: u64,
    /// FNV-64 of the file contents.
    pub fnv64: u64,
}

/// Provenance record for one experiment run.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Producing tool (e.g. `"repro"`).
    pub tool: String,
    /// `git describe --always --dirty` at run time.
    pub git_describe: String,
    /// RNG master seed the run derived every stream from.
    pub master_seed: u64,
    /// Total wall time of the run, seconds.
    pub wall_s: f64,
    /// Ordered configuration fingerprint (`key`, `value`) pairs.
    pub config: Vec<(String, String)>,
    /// The commands/figures the run executed, in run order, each with its
    /// wall time in seconds.
    pub commands: Vec<(String, f64)>,
    /// Every artifact the run wrote, in emission order.
    pub artifacts: Vec<Artifact>,
    /// Counter snapshot at write time (empty in uninstrumented builds).
    pub counters: Vec<(String, u64)>,
}

impl RunManifest {
    /// Creates an empty manifest for `tool`, stamping `git describe` now.
    pub fn new(tool: &str, master_seed: u64) -> Self {
        RunManifest {
            tool: tool.to_string(),
            git_describe: git_describe(),
            master_seed,
            wall_s: 0.0,
            config: Vec::new(),
            commands: Vec::new(),
            artifacts: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Appends a configuration fingerprint entry.
    pub fn config_entry(&mut self, key: &str, value: impl std::fmt::Display) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// Hashes `path`'s current contents and records it as an artifact.
    /// Unreadable files are recorded with size 0 / hash 0 rather than
    /// aborting a finished run.
    pub fn add_artifact(&mut self, path: &Path) {
        let (bytes, hash) = match std::fs::read(path) {
            Ok(data) => (data.len() as u64, fnv64(&data)),
            Err(_) => (0, 0),
        };
        self.artifacts.push(Artifact {
            path: path.to_string_lossy().into_owned(),
            bytes,
            fnv64: hash,
        });
    }

    /// Captures the current global counter snapshot into the manifest.
    pub fn capture_counters(&mut self) {
        self.counters = Registry::global().snapshot().counters;
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"tool\": \"{}\",", json_escape(&self.tool));
        let _ = writeln!(
            out,
            "  \"git_describe\": \"{}\",",
            json_escape(&self.git_describe)
        );
        let _ = writeln!(out, "  \"master_seed\": {},", self.master_seed);
        let _ = writeln!(out, "  \"wall_s\": {:.3},", self.wall_s);
        out.push_str("  \"command_s\": {");
        for (i, (c, secs)) in self.commands.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {secs:.3}", json_escape(c));
        }
        out.push_str("\n  },\n");
        out.push_str("  \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": \"{}\"", json_escape(k), json_escape(v));
        }
        out.push_str("\n  },\n  \"commands\": [");
        for (i, (c, _)) in self.commands.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", json_escape(c));
        }
        out.push_str("],\n  \"artifacts\": [");
        for (i, a) in self.artifacts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"path\": \"{}\", \"bytes\": {}, \"fnv64\": \"{:016x}\"}}",
                json_escape(&a.path),
                a.bytes,
                a.fnv64
            );
        }
        out.push_str("\n  ],\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {v}", json_escape(k));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Writes the JSON manifest to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn manifest_round_trip_shape() {
        let mut m = RunManifest::new("test-tool", 2005);
        m.wall_s = 1.5;
        m.config_entry("rho_axis", "20..140");
        m.config_entry("quad_points", 64);
        m.commands.push(("fig4".into(), 0.25));
        let dir = std::env::temp_dir().join("nss_obs_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("sample.csv");
        std::fs::write(&csv, b"a,b\n1,2\n").unwrap();
        m.add_artifact(&csv);
        let json = m.to_json();
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"master_seed\": 2005"));
        assert!(json.contains("\"quad_points\": \"64\""));
        assert!(json.contains("\"command_s\": {\n    \"fig4\": 0.250\n  },"));
        assert!(json.contains("\"commands\": [\"fig4\"]"));
        assert!(json.contains("\"fnv64\""));
        assert!(json.contains(&format!("{:016x}", fnv64(b"a,b\n1,2\n"))));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let out = dir.join("RUN_MANIFEST.json");
        m.write(&out).unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap(), json);
    }

    #[test]
    fn missing_artifact_is_tolerated() {
        let mut m = RunManifest::new("t", 0);
        m.add_artifact(Path::new("/nonexistent/never/there.csv"));
        assert_eq!(m.artifacts[0].bytes, 0);
        assert_eq!(m.artifacts[0].fnv64, 0);
    }

    #[test]
    fn git_describe_never_panics() {
        let d = git_describe();
        assert!(!d.is_empty());
    }
}
