//! Helpers shared by the integration tests.

use std::path::{Path, PathBuf};

/// A scratch directory under the system temp dir, named after `name` and
/// this process, emptied first and removed when the guard drops — on a
/// panic too, so a failing test leaves nothing behind.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
