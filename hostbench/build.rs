//! Records the compiler version and the source commit for the benchmark's
//! output metadata. Neither is available at run time in a plain source
//! checkout, so both are resolved here and baked in as `env!` values; a
//! checkout without git history records the commit as `unknown`.

use std::path::Path;
use std::process::Command;

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_owned())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = stdout_of(Command::new(rustc).arg("--version")).unwrap_or("unknown".into());
    println!("cargo:rustc-env=HOSTBENCH_RUSTC={version}");

    // Only the repository's own `.git` is consulted (GIT_DIR stops git from
    // searching parent directories for some other repository).
    let git_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let commit = if git_dir.is_dir() {
        println!("cargo:rerun-if-changed={}", git_dir.join("HEAD").display());
        println!("cargo:rerun-if-changed={}", git_dir.join("refs/heads").display());
        stdout_of(Command::new("git").env("GIT_DIR", &git_dir).args(["rev-parse", "HEAD"]))
    } else {
        None
    };
    println!("cargo:rustc-env=HOSTBENCH_COMMIT={}", commit.as_deref().unwrap_or("unknown"));
    println!("cargo:rerun-if-changed=build.rs");
}
