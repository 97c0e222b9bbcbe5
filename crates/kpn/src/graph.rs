//! Application graph description.
//!
//! A directed graph with a node for each task and an edge for each data
//! stream (paper Figure 2). Each stream has precisely one producer port
//! and one or more consumer ports, and a FIFO buffer of a fixed size
//! chosen at configuration time. Ports are identified by their index
//! within a task's input/output port lists — the same `port_id` the
//! coprocessor passes to its shell.

/// Identifies a task (node) within one [`AppGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// Identifies a stream (edge) within one [`AppGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

/// Index of a port within a task's input or output port list.
pub type PortIndex = u8;

/// One task (node) of the application graph.
#[derive(Debug, Clone)]
pub struct TaskDecl {
    /// Human-readable instance name, unique within the graph
    /// (e.g. `"vld0"`).
    pub name: String,
    /// The *function* this task performs (e.g. `"vld"`, `"idct"`); the
    /// mapping layer uses this to find a coprocessor (or software routine)
    /// implementing it.
    pub function: String,
    /// Function parameter word passed to the coprocessor via `GetTask`
    /// (paper Section 3.2), e.g. one bit selecting forward vs inverse DCT.
    pub task_info: u32,
    /// Streams read by this task, in port order (`port_id` = index).
    pub inputs: Vec<StreamId>,
    /// Streams written by this task, in port order.
    pub outputs: Vec<StreamId>,
}

/// One stream (edge) of the application graph.
#[derive(Debug, Clone)]
pub struct StreamDecl {
    /// Human-readable name, unique within the graph (e.g. `"coef"`).
    pub name: String,
    /// FIFO buffer size in bytes allocated for this stream.
    pub buffer_size: u32,
    /// Producing task and its output-port index.
    pub producer: (TaskId, PortIndex),
    /// Consuming tasks and their input-port indices (at least one).
    pub consumers: Vec<(TaskId, PortIndex)>,
}

/// A validated Kahn application graph.
#[derive(Debug, Clone)]
pub struct AppGraph {
    /// Graph name, for reporting.
    pub name: String,
    tasks: Vec<TaskDecl>,
    streams: Vec<StreamDecl>,
}

/// Errors detected by [`GraphBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A stream was declared but never connected to a producer.
    MissingProducer(String),
    /// A stream has no consumers.
    MissingConsumer(String),
    /// A stream was connected to two producers.
    DuplicateProducer(String),
    /// Two tasks share a name.
    DuplicateTaskName(String),
    /// A stream buffer size is zero.
    ZeroBuffer(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::MissingProducer(s) => write!(f, "stream '{s}' has no producer"),
            GraphError::MissingConsumer(s) => write!(f, "stream '{s}' has no consumer"),
            GraphError::DuplicateProducer(s) => write!(f, "stream '{s}' has two producers"),
            GraphError::DuplicateTaskName(t) => write!(f, "duplicate task name '{t}'"),
            GraphError::ZeroBuffer(s) => write!(f, "stream '{s}' has zero buffer size"),
        }
    }
}

impl std::error::Error for GraphError {}

impl AppGraph {
    /// All tasks, indexable by [`TaskId`].
    pub fn tasks(&self) -> &[TaskDecl] {
        &self.tasks
    }

    /// All streams, indexable by [`StreamId`].
    pub fn streams(&self) -> &[StreamDecl] {
        &self.streams
    }

    /// Look up a task declaration.
    pub fn task(&self, id: TaskId) -> &TaskDecl {
        &self.tasks[id.0 as usize]
    }

    /// Look up a stream declaration.
    pub fn stream(&self, id: StreamId) -> &StreamDecl {
        &self.streams[id.0 as usize]
    }

    /// Find a task by name.
    pub fn task_by_name(&self, name: &str) -> Option<TaskId> {
        self.tasks
            .iter()
            .position(|t| t.name == name)
            .map(|i| TaskId(i as u32))
    }

    /// Find a stream by name.
    pub fn stream_by_name(&self, name: &str) -> Option<StreamId> {
        self.streams
            .iter()
            .position(|s| s.name == name)
            .map(|i| StreamId(i as u32))
    }

    /// Iterator over `(TaskId, &TaskDecl)`.
    pub fn task_ids(&self) -> impl Iterator<Item = (TaskId, &TaskDecl)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i as u32), t))
    }

    /// Iterator over `(StreamId, &StreamDecl)`.
    pub fn stream_ids(&self) -> impl Iterator<Item = (StreamId, &StreamDecl)> {
        self.streams
            .iter()
            .enumerate()
            .map(|(i, s)| (StreamId(i as u32), s))
    }
}

/// Incrementally builds and validates an [`AppGraph`].
///
/// ```
/// use eclipse_kpn::GraphBuilder;
///
/// let mut g = GraphBuilder::new("pipeline");
/// let s = g.stream("nums", 1024);
/// let t = g.stream("doubled", 1024);
/// g.task("source", "gen", 0, &[], &[s]);
/// g.task("double", "map", 0, &[s], &[t]);
/// g.task("sink", "collect", 0, &[t], &[]);
/// let graph = g.build().unwrap();
/// assert_eq!(graph.tasks().len(), 3);
/// ```
pub struct GraphBuilder {
    name: String,
    tasks: Vec<TaskDecl>,
    streams: Vec<(String, u32)>,
}

impl GraphBuilder {
    /// Start a new graph.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            name: name.into(),
            tasks: Vec::new(),
            streams: Vec::new(),
        }
    }

    /// Declare a stream with the given FIFO buffer size in bytes. Returns
    /// its id for use in [`GraphBuilder::task`] connections.
    pub fn stream(&mut self, name: impl Into<String>, buffer_size: u32) -> StreamId {
        let id = StreamId(self.streams.len() as u32);
        self.streams.push((name.into(), buffer_size));
        id
    }

    /// Declare a task consuming `inputs` and producing `outputs`
    /// (port indices follow slice order).
    pub fn task(
        &mut self,
        name: impl Into<String>,
        function: impl Into<String>,
        task_info: u32,
        inputs: &[StreamId],
        outputs: &[StreamId],
    ) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(TaskDecl {
            name: name.into(),
            function: function.into(),
            task_info,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
        });
        id
    }

    /// Validate and produce the graph.
    pub fn build(self) -> Result<AppGraph, GraphError> {
        // Unique task names.
        for (i, t) in self.tasks.iter().enumerate() {
            if self.tasks[..i].iter().any(|u| u.name == t.name) {
                return Err(GraphError::DuplicateTaskName(t.name.clone()));
            }
        }
        let mut streams: Vec<StreamDecl> = self
            .streams
            .iter()
            .map(|(name, size)| StreamDecl {
                name: name.clone(),
                buffer_size: *size,
                producer: (TaskId(u32::MAX), 0),
                consumers: Vec::new(),
            })
            .collect();
        for (ti, t) in self.tasks.iter().enumerate() {
            for (pi, &sid) in t.outputs.iter().enumerate() {
                let s = &mut streams[sid.0 as usize];
                if s.producer.0 != TaskId(u32::MAX) {
                    return Err(GraphError::DuplicateProducer(s.name.clone()));
                }
                s.producer = (TaskId(ti as u32), pi as PortIndex);
            }
            for (pi, &sid) in t.inputs.iter().enumerate() {
                streams[sid.0 as usize]
                    .consumers
                    .push((TaskId(ti as u32), pi as PortIndex));
            }
        }
        for s in &streams {
            if s.producer.0 == TaskId(u32::MAX) {
                return Err(GraphError::MissingProducer(s.name.clone()));
            }
            if s.consumers.is_empty() {
                return Err(GraphError::MissingConsumer(s.name.clone()));
            }
            if s.buffer_size == 0 {
                return Err(GraphError::ZeroBuffer(s.name.clone()));
            }
        }
        Ok(AppGraph {
            name: self.name,
            tasks: self.tasks,
            streams,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_graph() -> AppGraph {
        let mut g = GraphBuilder::new("test");
        let a = g.stream("a", 64);
        let b = g.stream("b", 128);
        g.task("src", "gen", 0, &[], &[a]);
        g.task("mid", "map", 7, &[a], &[b]);
        g.task("dst", "collect", 0, &[b], &[]);
        g.build().unwrap()
    }

    #[test]
    fn builds_and_connects() {
        let g = linear_graph();
        assert_eq!(g.tasks().len(), 3);
        assert_eq!(g.streams().len(), 2);
        let a = g.stream_by_name("a").unwrap();
        assert_eq!(g.stream(a).producer, (g.task_by_name("src").unwrap(), 0));
        assert_eq!(
            g.stream(a).consumers,
            vec![(g.task_by_name("mid").unwrap(), 0)]
        );
        assert_eq!(g.task(g.task_by_name("mid").unwrap()).task_info, 7);
    }

    #[test]
    fn multicast_stream_allowed() {
        let mut g = GraphBuilder::new("fork");
        let s = g.stream("s", 64);
        g.task("src", "gen", 0, &[], &[s]);
        g.task("c1", "collect", 0, &[s], &[]);
        g.task("c2", "collect", 0, &[s], &[]);
        let g = g.build().unwrap();
        assert_eq!(g.stream(StreamId(0)).consumers.len(), 2);
    }

    #[test]
    fn missing_producer_rejected() {
        let mut g = GraphBuilder::new("bad");
        let s = g.stream("orphan", 64);
        g.task("c", "collect", 0, &[s], &[]);
        assert_eq!(
            g.build().unwrap_err(),
            GraphError::MissingProducer("orphan".into())
        );
    }

    #[test]
    fn missing_consumer_rejected() {
        let mut g = GraphBuilder::new("bad");
        let s = g.stream("deadend", 64);
        g.task("p", "gen", 0, &[], &[s]);
        assert_eq!(
            g.build().unwrap_err(),
            GraphError::MissingConsumer("deadend".into())
        );
    }

    #[test]
    fn duplicate_producer_rejected() {
        let mut g = GraphBuilder::new("bad");
        let s = g.stream("s", 64);
        g.task("p1", "gen", 0, &[], &[s]);
        g.task("p2", "gen", 0, &[], &[s]);
        g.task("c", "collect", 0, &[s], &[]);
        assert_eq!(
            g.build().unwrap_err(),
            GraphError::DuplicateProducer("s".into())
        );
    }

    #[test]
    fn duplicate_task_name_rejected() {
        let mut g = GraphBuilder::new("bad");
        let s = g.stream("s", 64);
        g.task("x", "gen", 0, &[], &[s]);
        g.task("x", "collect", 0, &[s], &[]);
        assert_eq!(
            g.build().unwrap_err(),
            GraphError::DuplicateTaskName("x".into())
        );
    }

    #[test]
    fn zero_buffer_rejected() {
        let mut g = GraphBuilder::new("bad");
        let s = g.stream("s", 0);
        g.task("p", "gen", 0, &[], &[s]);
        g.task("c", "collect", 0, &[s], &[]);
        assert_eq!(g.build().unwrap_err(), GraphError::ZeroBuffer("s".into()));
    }

    #[test]
    fn task_can_have_multiple_ports() {
        // MC in the MPEG decoder: residual + motion-vector inputs.
        let mut g = GraphBuilder::new("mc");
        let res = g.stream("residual", 256);
        let mv = g.stream("mv", 64);
        let out = g.stream("recon", 256);
        g.task("dct", "idct", 0, &[], &[res]);
        g.task("vld", "vld", 0, &[], &[mv]);
        let mc = g.task("mc", "mc", 0, &[res, mv], &[out]);
        g.task("disp", "collect", 0, &[out], &[]);
        let g = g.build().unwrap();
        assert_eq!(g.task(mc).inputs.len(), 2);
        // Port indices follow declaration order.
        assert_eq!(g.stream(mv).consumers, vec![(mc, 1)]);
    }
}
