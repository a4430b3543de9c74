//! Records the compiler that builds the benchmark, for the host
//! fingerprint every run prints.
fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "rustc unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=BENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
