//! Plain-text serialization of deployed networks.
//!
//! A minimal, stable, diff-friendly format so experiments can pin the
//! exact topology they ran on (or load surveyed real-world positions):
//!
//! ```text
//! # nss-positions v1 r=1.25
//! 0 0
//! 0.8112 -0.4401
//! ...
//! ```
//!
//! Line 1 is a header carrying the format version and the communication
//! radius; each following non-comment line is one node's `x y` (node 0 is
//! the source). Blank lines and `#` comments are ignored after the header.

use crate::deployment::DeployedNetwork;
use crate::geometry::Point2;
use std::io::{self, BufRead, Write};
use std::path::Path;

const MAGIC: &str = "# nss-positions v1";

/// Writes a network in the positions format.
pub fn write_positions<W: Write>(net: &DeployedNetwork, mut w: W) -> io::Result<()> {
    writeln!(w, "{MAGIC} r={}", net.comm_radius())?;
    for p in net.positions() {
        writeln!(w, "{} {}", p.x, p.y)?;
    }
    Ok(())
}

/// Reads a network from the positions format.
pub fn read_positions<R: BufRead>(r: R) -> io::Result<DeployedNetwork> {
    let mut lines = r.lines();
    let header = lines.next().ok_or_else(|| bad("empty input"))??;
    let rest = header
        .strip_prefix(MAGIC)
        .ok_or_else(|| bad("missing nss-positions header"))?;
    let radius: f64 = rest
        .trim()
        .strip_prefix("r=")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("header must carry r=<radius>"))?;
    if !(radius.is_finite() && radius > 0.0) {
        return Err(bad("radius must be positive and finite"));
    }
    let mut positions = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> io::Result<f64> {
            tok.and_then(|t| t.parse::<f64>().ok())
                .filter(|v| v.is_finite())
                .ok_or_else(|| bad(&format!("bad coordinate on line {}", lineno + 2)))
        };
        let x = parse(it.next())?;
        let y = parse(it.next())?;
        if it.next().is_some() {
            return Err(bad(&format!("trailing tokens on line {}", lineno + 2)));
        }
        positions.push(Point2::new(x, y));
    }
    if positions.is_empty() {
        return Err(bad("no node positions"));
    }
    Ok(DeployedNetwork::from_positions(positions, radius))
}

/// Saves a network to a file.
pub fn save_positions(net: &DeployedNetwork, path: impl AsRef<Path>) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_positions(net, io::BufWriter::new(f))
}

/// Loads a network from a file.
pub fn load_positions(path: impl AsRef<Path>) -> io::Result<DeployedNetwork> {
    let f = std::fs::File::open(path)?;
    read_positions(io::BufReader::new(f))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;

    #[test]
    fn roundtrip_preserves_everything() {
        let net = Deployment::disk(4, 1.5, 30.0).sample(7);
        let mut buf = Vec::new();
        write_positions(&net, &mut buf).unwrap();
        let loaded = read_positions(&buf[..]).unwrap();
        assert_eq!(loaded.comm_radius(), net.comm_radius());
        assert_eq!(loaded.len(), net.len());
        for (a, b) in loaded.positions().iter().zip(net.positions()) {
            assert_eq!(a, b, "positions must roundtrip exactly");
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# nss-positions v1 r=2\n0 0\n\n# a comment\n1.5 -0.25\n";
        let net = read_positions(text.as_bytes()).unwrap();
        assert_eq!(net.len(), 2);
        assert_eq!(net.positions()[1], Point2::new(1.5, -0.25));
        assert_eq!(net.comm_radius(), 2.0);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(read_positions("".as_bytes()).is_err());
        assert!(read_positions("hello\n0 0\n".as_bytes()).is_err());
        assert!(read_positions("# nss-positions v1\n0 0\n".as_bytes()).is_err());
        assert!(read_positions("# nss-positions v1 r=-1\n0 0\n".as_bytes()).is_err());
        assert!(read_positions("# nss-positions v1 r=1\n".as_bytes()).is_err());
        assert!(read_positions("# nss-positions v1 r=1\n0\n".as_bytes()).is_err());
        assert!(read_positions("# nss-positions v1 r=1\n0 0 0\n".as_bytes()).is_err());
        assert!(read_positions("# nss-positions v1 r=1\n0 NaN\n".as_bytes()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let net = Deployment::disk(3, 1.0, 20.0).sample(1);
        let dir = std::env::temp_dir().join("nss_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.txt");
        save_positions(&net, &path).unwrap();
        let loaded = load_positions(&path).unwrap();
        assert_eq!(loaded.positions(), net.positions());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn far_apart_nodes_load_and_build() {
        // At cell size r these bounding boxes would need 10¹², 9·10⁸, an
        // overflowing and an infinite number of grid cells.
        use crate::topology::Topology;
        for (nodes, expect) in [
            ("0 0\n1e6 1e6\n", &[0, 0][..]),
            ("0 0\n3e4 3e4\n", &[0, 0]),
            ("0 0\n0.5 0\n1e300 -1e300\n", &[1, 1, 0]),
            ("-1.7e308 0\n1.7e308 0\n1.7e308 1\n", &[0, 1, 1]),
        ] {
            let text = format!("# nss-positions v1 r=1\n{nodes}");
            let topo = Topology::try_build(&read_positions(text.as_bytes()).unwrap()).unwrap();
            let degrees: Vec<usize> = (0..topo.len())
                .map(|u| topo.degree(crate::ids::NodeId(u as u32)))
                .collect();
            assert_eq!(degrees, expect, "nodes {nodes:?}");
        }
    }

    #[test]
    fn loaded_network_builds_identical_topology() {
        use crate::topology::Topology;
        let net = Deployment::disk(3, 1.0, 40.0).sample(5);
        let mut buf = Vec::new();
        write_positions(&net, &mut buf).unwrap();
        let loaded = read_positions(&buf[..]).unwrap();
        let a = Topology::build(&net);
        let b = Topology::build(&loaded);
        assert_eq!(a.edge_count(), b.edge_count());
        for u in 0..a.len() {
            assert_eq!(
                a.neighbors(crate::ids::NodeId(u as u32)),
                b.neighbors(crate::ids::NodeId(u as u32))
            );
        }
    }
}
