//! A keep-alive HTTP/1.1 client for the serve workloads: one persistent
//! connection, one request in flight, `Content-Length` bodies only (the
//! subset `nss_obs::http` speaks).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One persistent connection to the server.
pub struct Client {
    stream: TcpStream,
    request: Vec<u8>,
    buf: Vec<u8>,
    body_start: usize,
}

impl Client {
    /// Connects with `TCP_NODELAY` (small exchanges: Nagle plus delayed
    /// ACK would add tens of milliseconds per round trip).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            request: Vec::with_capacity(1024),
            buf: Vec::with_capacity(8192),
            body_start: 0,
        })
    }

    /// `GET path?query`; returns the status. The body is then [`Client::body`].
    pub fn get(&mut self, path: &str, query: &str) -> io::Result<u16> {
        self.request.clear();
        write!(
            self.request,
            "GET {path}?{query} HTTP/1.1\r\nHost: bench\r\n\r\n"
        )?;
        self.exchange()
    }

    /// `POST path` with a JSON body; returns the status.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<u16> {
        self.request.clear();
        write!(
            self.request,
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.exchange()
    }

    /// The body of the last response.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body_start..]
    }

    fn exchange(&mut self) -> io::Result<u16> {
        self.stream.write_all(&self.request)?;
        self.buf.clear();
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before a response head",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| invalid("response head is not UTF-8"))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("no status code"))?;
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| invalid("no Content-Length"))?;
        self.body_start = head_end + 4;
        let total = self.body_start + length;
        while self.buf.len() < total {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        if self.buf.len() > total {
            return Err(invalid("bytes past the response body (no pipelining)"));
        }
        Ok(status)
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}
