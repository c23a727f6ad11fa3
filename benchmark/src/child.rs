//! The server under test as a child process: the shipped `arlo serve`
//! binary, started with a cleared environment, observed through `/proc`,
//! stopped with a `Drain` frame.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The shipped server binary: `$ARLO_BIN`, which `run.sh` sets after
/// building it.
pub fn server_binary() -> Result<PathBuf, String> {
    let path = std::env::var_os("ARLO_BIN")
        .map(PathBuf::from)
        .ok_or("ARLO_BIN is not set: run benchmark/run.sh, which builds the server and sets it")?;
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("server binary {} not found", path.display()))
    }
}

/// A loopback address nothing is listening on: bind port 0, read the port
/// back, release it. The server binds it a moment later.
pub fn free_addr() -> Result<String, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind probe port: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("probe port address: {e}"))?;
    Ok(addr.to_string())
}

/// A running child. Dropping it kills and reaps the process if it is still
/// alive, so no run can leave a server behind.
pub struct ServerChild {
    child: Child,
    /// When the process was spawned.
    pub spawned_at: Instant,
}

impl ServerChild {
    /// Start `binary` with `args` and an empty environment.
    pub fn spawn(binary: &Path, args: &[String]) -> Result<ServerChild, String> {
        let spawned_at = Instant::now();
        let child = Command::new(binary)
            .args(args)
            .env_clear()
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        Ok(ServerChild { child, spawned_at })
    }

    /// The child's pid, as the `/proc` path component.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Whether the child has already exited (it should not have, before
    /// `Drain`).
    pub fn exited(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }

    /// Wait up to `timeout` for the child to exit and return its exit
    /// code; a child still running after that is killed and reported.
    pub fn wait_exit(mut self, timeout: Duration) -> Result<i32, String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    return status
                        .code()
                        .ok_or_else(|| "server was killed by a signal".to_string())
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => {
                    return Err(format!(
                        "server still running {timeout:?} after Drain; killed"
                    ));
                    // Drop kills and reaps.
                }
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
