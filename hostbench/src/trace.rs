//! Outside-in span recording: one span per call the benchmark makes into a
//! crate's public function. Spans stay in memory and are written out once
//! the run ends, so recording costs two clock reads and a `Vec` push.

use std::time::Instant;

use bigtiny_obs::Json;

/// One timed call. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.run_task_parallel`.
    pub name: &'static str,
    /// Index of the cell the call belongs to (into [`Tracer::cells`]), or
    /// `None` for pass-level calls such as `obs.metrics_document`.
    pub cell: Option<usize>,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which run of the cell: `main` for the measured pass, or the
    /// attribution variant (`flight-off`, `check-armed`, ...).
    pub variant: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder for one traced run.
pub struct Tracer {
    origin: Instant,
    /// `(workload, app, setup, seed)` id of every cell spans refer to.
    pub cells: Vec<String>,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
    open: Vec<usize>,
    cell: Option<usize>,
    variant: &'static str,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            cells: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: None,
            variant: "main",
        }
    }

    /// Makes later spans belong to `cell` (registering its id once) under
    /// `variant`.
    pub fn enter_cell(&mut self, id: String, variant: &'static str) {
        let idx = match self.cells.iter().position(|c| *c == id) {
            Some(i) => i,
            None => {
                self.cells.push(id);
                self.cells.len() - 1
            }
        };
        self.cell = Some(idx);
        self.variant = variant;
    }

    /// Makes later spans pass-level (no cell).
    pub fn leave_cell(&mut self) {
        self.cell = None;
        self.variant = "main";
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under any open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            cell: self.cell,
            parent: self.open.last().copied(),
            variant: self.variant,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Closes every span a panic left open (their calls never returned),
    /// ending them now, so later spans get the right parents.
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        for idx in self.open.drain(..) {
            self.spans[idx].end_ns = now;
        }
    }

    /// Total seconds of `main`-variant spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.total_of(name, "main")
    }

    /// Total seconds of spans named `name` recorded under `variant`.
    pub fn total_of(&self, name: &str, variant: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.variant == variant)
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// Seconds covered by top-level (parentless) `main` spans inside
    /// `[from_ns, to_ns)`.
    pub fn top_level_secs(&self, from_ns: u64, to_ns: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.start_ns >= from_ns && s.end_ns <= to_ns)
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// Current clock reading, ns since origin (for phase boundaries).
    pub fn mark(&self) -> u64 {
        self.now_ns()
    }

    /// Every span as a JSON document (`bigtiny-hostbench-spans-v1`).
    pub fn to_json(&self, meta: Json) -> Json {
        let opt = |v: Option<usize>| v.map_or(Json::Null, |i| Json::u64(i as u64));
        Json::Obj(vec![
            ("schema".into(), Json::str("bigtiny-hostbench-spans-v1")),
            ("meta".into(), meta),
            ("cells".into(), Json::Arr(self.cells.iter().map(Json::str).collect())),
            (
                "spans".into(),
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(s.name)),
                                ("cell".into(), opt(s.cell)),
                                ("parent".into(), opt(s.parent)),
                                ("variant".into(), Json::str(s.variant)),
                                ("start_ns".into(), Json::u64(s.start_ns)),
                                ("end_ns".into(), Json::u64(s.end_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
