//! Reference fingerprints: simulated cycles and `seq_op_hash` of every
//! cell of the pinned seeds at eval size, stored with the benchmark in
//! `references.json`. A host-only change must reproduce them exactly. Other
//! seeds are printed, not checked, so two commits can be compared by hand.

use std::collections::BTreeMap;

use bigtiny_obs::{parse_json, Json};

const SCHEMA: &str = "bigtiny-hostbench-refs-v1";
const STORED: &str = include_str!("../references.json");

/// Where `--update-refs` writes.
pub const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/references.json");

/// Cell id -> `(cycles, seq_op_hash)`.
pub type Refs = BTreeMap<String, (u64, u64)>;

fn parse(text: &str) -> Result<Refs, String> {
    let doc = parse_json(text)?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("references: schema is not {SCHEMA}"));
    }
    let Some(Json::Obj(cells)) = doc.get("cells") else {
        return Err("references: no `cells` object".to_owned());
    };
    cells
        .iter()
        .map(|(id, v)| {
            let cycles = v.get("cycles").and_then(Json::as_num);
            let hash = v
                .get("seq_op_hash")
                .and_then(Json::as_str)
                .and_then(|h| u64::from_str_radix(h.trim_start_matches("0x"), 16).ok());
            match (cycles, hash) {
                (Some(c), Some(h)) => Ok((id.clone(), (c as u64, h))),
                _ => Err(format!("references: bad entry for {id}")),
            }
        })
        .collect()
}

/// The stored references.
pub fn stored() -> Refs {
    parse(STORED).expect("references.json is valid")
}

/// The references file as it is on disk now (`--update-refs` merges into
/// it, so consecutive updates accumulate).
pub fn on_disk() -> Refs {
    let text = std::fs::read_to_string(PATH).expect("read references.json");
    parse(&text).expect("references.json is valid")
}

/// Whether `(workload, seed)` is pinned: any stored id ends in that pair.
pub fn pinned(refs: &Refs, workload: &str, seed: u64) -> bool {
    let suffix = format!(" {seed}");
    refs.keys().any(|k| k.starts_with(&format!("{workload} ")) && k.ends_with(&suffix))
}

/// Renders references as the stored document.
pub fn render(refs: &Refs) -> String {
    let cells = refs
        .iter()
        .map(|(id, &(cycles, hash))| {
            let entry = Json::Obj(vec![
                ("cycles".into(), Json::u64(cycles)),
                ("seq_op_hash".into(), Json::hash(hash)),
            ]);
            (id.clone(), entry)
        })
        .collect();
    let doc =
        Json::Obj(vec![("schema".into(), Json::str(SCHEMA)), ("cells".into(), Json::Obj(cells))]);
    // One entry per line keeps diffs of the stored file readable.
    doc.to_json().replace("},\"", "},\n\"") + "\n"
}
