//! The serving front end every networked workload hosts: a
//! `serve::Server` on a loopback port, its accept loop on its own thread,
//! and one `serve::Client` connection to it.

use std::net::TcpListener;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use synoptic_repl::{MemTransport, Received, Transport};
use synoptic_serve::{Client, ServeConfig, Server};
use synoptic_stream::ColumnHandle;

pub struct Front {
    pub server: Server,
    pub client: Client,
    accept: Option<JoinHandle<std::io::Result<()>>>,
}

impl Front {
    /// Serves `handle` with the default configuration and connects one
    /// client to it.
    pub fn start(handle: &ColumnHandle) -> Result<Front, String> {
        let server = Server::new(ServeConfig::default());
        server.register(handle.clone());
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let serving = server.clone();
        let accept = std::thread::spawn(move || serving.serve(listener));
        let client = match Client::connect(&addr.to_string()) {
            Ok(c) => c,
            Err(e) => {
                server.shutdown();
                let _ = accept.join();
                return Err(format!("connect: {e}"));
            }
        };
        Ok(Front {
            server,
            client,
            accept: Some(accept),
        })
    }

    /// Stops the accept loop and the connection threads and waits for
    /// them; the client's socket closes when the value drops.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        self.server.shutdown();
        match self.accept.take() {
            Some(t) => match t.join() {
                Ok(Ok(())) => Ok(()),
                Ok(Err(e)) => Err(format!("accept loop: {e}")),
                Err(_) => Err("accept loop panicked".into()),
            },
            None => Ok(()),
        }
    }
}

impl Drop for Front {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// A transport wrapper on the server side of an in-memory connection that
/// notes when a request frame was handed to the server and when the
/// server began sending its answer: the server's own time per request.
struct Stamped {
    inner: MemTransport,
    received: Option<Instant>,
    stamps: mpsc::Sender<(Instant, Instant)>,
}

impl Transport for Stamped {
    fn send(&mut self, frame: &[u8]) -> synoptic_core::Result<()> {
        if let Some(start) = self.received.take() {
            let _ = self.stamps.send((start, Instant::now()));
        }
        self.inner.send(frame)
    }

    fn recv(&mut self, timeout: Option<Duration>) -> synoptic_core::Result<Received> {
        let got = self.inner.recv(timeout)?;
        if matches!(got, Received::Frame(_)) {
            self.received = Some(Instant::now());
        }
        Ok(got)
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

/// `Server::handle_transport` over an in-memory connection, with no TCP:
/// frames go in raw and come back raw, together with the server's time.
pub struct MemLink {
    client: MemTransport,
    stamps: mpsc::Receiver<(Instant, Instant)>,
    worker: Option<JoinHandle<()>>,
}

impl MemLink {
    pub fn open(server: &Server) -> MemLink {
        let (client, server_end) = MemTransport::pair();
        let (tx, stamps) = mpsc::channel();
        let server = server.clone();
        let worker = std::thread::spawn(move || {
            let mut t = Stamped {
                inner: server_end,
                received: None,
                stamps: tx,
            };
            server.handle_transport(&mut t);
        });
        MemLink {
            client,
            stamps,
            worker: Some(worker),
        }
    }

    /// Sends one request frame and returns the response frame with the
    /// server's (start, end) for it.
    pub fn call(&mut self, frame: &[u8]) -> Result<(Vec<u8>, (Instant, Instant)), String> {
        self.client.send(frame).map_err(|e| e.to_string())?;
        match self.client.recv(Some(Duration::from_secs(30))) {
            Ok(Received::Frame(resp)) => {
                let stamp = self.stamps.recv().map_err(|e| e.to_string())?;
                Ok((resp, stamp))
            }
            other => Err(format!("in-memory server link: {other:?}")),
        }
    }
}

impl Drop for MemLink {
    fn drop(&mut self) {
        self.client.close();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}
