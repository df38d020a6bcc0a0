//! Parsing [`CampaignSpec`]s back out of JSON — the inverse of
//! [`CampaignSpec::canonical_json`].
//!
//! The campaign service (`hirise-serve`) accepts specs over the wire,
//! so the declarative grid needs a deserializer to match its
//! serializer. The parser accepts any JSON with the canonical schema —
//! key order and whitespace are irrelevant, and absent optional fields
//! take the same defaults as [`CampaignSpec::new`] — which is what
//! makes the content hash sound: two texts that parse to the same spec
//! re-canonicalize to the same bytes and therefore the same digest
//! (pinned by the `spec_json` round-trip property tests).
//!
//! Numbers that must stay exact (seeds) ride on [`Json::Int`], which
//! preserves full `u64` precision instead of routing through `f64`.

use crate::json::{self, Json, JsonError};
use crate::spec::{CampaignSpec, FabricSpec, FaultSpec, PatternSpec, SimParams, Topology};
use hirise_core::{
    ArbitrationScheme, ChannelAllocation, HiRiseConfig, LocalArbiterKind, MatchPolicy,
};
use hirise_sim::dragonfly::{DragonflyConfig, DragonflyError};
use hirise_sim::mesh_sim::{MeshGeometry, MeshPortMap, MeshShapeError};
use std::fmt;

/// Why a campaign spec could not be built from a JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// The text is not valid JSON at all.
    Json(JsonError),
    /// The JSON is well-formed but does not describe a valid campaign.
    Invalid {
        /// Which part of the spec was wrong (a field path like
        /// `fabrics[1].radix`).
        context: String,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "invalid JSON: {e}"),
            SpecError::Invalid { context, message } => {
                write!(f, "invalid campaign spec at {context}: {message}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

fn invalid(context: impl Into<String>, message: impl fmt::Display) -> SpecError {
    SpecError::Invalid {
        context: context.into(),
        message: message.to_string(),
    }
}

/// Parses a campaign spec from JSON text.
pub fn campaign_from_json(text: &str) -> Result<CampaignSpec, SpecError> {
    campaign_from_value(&json::parse(text)?)
}

/// Builds a campaign spec from an already-parsed JSON value.
///
/// `name` is required; every other field defaults as in
/// [`CampaignSpec::new`] when absent. Present fields must have the
/// canonical schema's types, and fabric configurations, the VC count
/// and (on a single switch) packet fit are validated: an impossible
/// Hi-Rise geometry, a 2D, folded or matching fabric of radix 0, a
/// folded fabric whose radix does not divide over at least 2 layers, 0
/// or more than 64 VCs, a zero-flit packet, a packet longer than a VC
/// buffer, a window of 0, a CLRG scheme of 0 classes, a mesh no job
/// could build (a zero dimension, a radix with no port left for a core,
/// a layer-aware port map whose layer count is zero or does not divide
/// the radix), a dragonfly no job could build (a zero dimension, fewer
/// than two groups, too small a radix, more groups than its global
/// channels reach, more dead wafer links than it has), or a traffic
/// pattern its fabric's
/// endpoints cannot carry (see [`PatternSpec::check`]) is a
/// [`SpecError::Invalid`] naming the field, never a worker panic or a
/// job that runs without sending anything.
pub fn campaign_from_value(value: &Json) -> Result<CampaignSpec, SpecError> {
    let obj = expect_obj(value, "spec")?;
    let name = require_str(obj, "name", "spec")?.to_string();
    let mut spec = CampaignSpec::new(name);
    if let Some(v) = obj.get("master_seed") {
        spec.master_seed = as_u64(v, "master_seed")?;
    }
    if let Some(v) = obj.get("topology") {
        spec.topology = topology_from_value(v)?;
    }
    if let Some(v) = obj.get("fabrics") {
        for (i, f) in as_arr(v, "fabrics")?.iter().enumerate() {
            spec.fabrics
                .push(fabric_from_value(f, &format!("fabrics[{i}]"))?);
        }
    }
    if let Some(v) = obj.get("schemes") {
        for (i, s) in as_arr(v, "schemes")?.iter().enumerate() {
            let ctx = format!("schemes[{i}]");
            spec.schemes
                .push(scheme_from_label(as_str(s, &ctx)?, &ctx)?);
        }
    }
    if let Some(v) = obj.get("allocations") {
        for (i, a) in as_arr(v, "allocations")?.iter().enumerate() {
            let ctx = format!("allocations[{i}]");
            spec.allocations
                .push(allocation_from_label(as_str(a, &ctx)?, &ctx)?);
        }
    }
    if let Some(v) = obj.get("patterns") {
        for (i, p) in as_arr(v, "patterns")?.iter().enumerate() {
            let ctx = format!("patterns[{i}]");
            spec.patterns
                .push(pattern_from_label(as_str(p, &ctx)?, &ctx)?);
        }
    }
    if let Some(v) = obj.get("loads") {
        for (i, l) in as_arr(v, "loads")?.iter().enumerate() {
            let ctx = format!("loads[{i}]");
            let load = as_f64(l, &ctx)?;
            if !load.is_finite() || load < 0.0 {
                return Err(invalid(ctx, "offered load must be finite and non-negative"));
            }
            spec.loads.push(load);
        }
    }
    if let Some(v) = obj.get("faults") {
        for (i, f) in as_arr(v, "faults")?.iter().enumerate() {
            spec.faults
                .push(fault_from_value(f, &format!("faults[{i}]"))?);
        }
    }
    if let Some(v) = obj.get("replicates") {
        spec.replicates = as_usize(v, "replicates")?.max(1);
    }
    if let Some(v) = obj.get("sim") {
        spec.sim = sim_from_value(v)?;
    }
    // Only the single-switch simulator buffers whole packets in VCs;
    // the network engine does not read the VC depth.
    if spec.topology == Topology::SingleSwitch
        && spec.sim.packet_len_flits > spec.sim.vc_depth_flits
    {
        return Err(invalid(
            "sim.packet_len",
            format!(
                "a {}-flit packet does not fit a {}-flit VC buffer",
                spec.sim.packet_len_flits, spec.sim.vc_depth_flits
            ),
        ));
    }
    // Execution knob, not part of the canonical schema: accepted here
    // so campaign files can request sharding, but never emitted by
    // `canonical_json` (results are invariant to it).
    if let Some(v) = obj.get("shards") {
        spec.shards = as_usize(v, "shards")?.max(1);
    }
    check_mesh(&spec)?;
    check_dragonfly(&spec)?;
    check_patterns(&spec)?;
    Ok(spec)
}

/// Rejects a mesh its jobs could not build on some fabric: a zero
/// dimension, a radix with no port left for a core, or a layer-aware
/// port map whose layer count is zero or does not divide the radix.
fn check_mesh(spec: &CampaignSpec) -> Result<(), SpecError> {
    let Topology::Mesh {
        cols,
        rows,
        ports_per_direction,
        layer_aware,
    } = spec.topology
    else {
        return Ok(());
    };
    let map = match layer_aware {
        Some(layers) => MeshPortMap::LayerAware { layers },
        None => MeshPortMap::Contiguous,
    };
    for (i, fabric) in spec.fabrics.iter().enumerate() {
        MeshGeometry::check(cols, rows, ports_per_direction, fabric.radix(), map).map_err(|e| {
            match e {
                MeshShapeError::ZeroDimension { field } => invalid(format!("topology.{field}"), e),
                MeshShapeError::RadixTooSmall { .. } => invalid(format!("fabrics[{i}].radix"), e),
                MeshShapeError::BadLayerCount { .. } => invalid("topology.layer_aware", e),
            }
        })?;
    }
    Ok(())
}

/// Rejects a traffic pattern that cannot be built over the endpoints of
/// a fabric it runs on (see [`CampaignSpec::endpoints`]).
fn check_patterns(spec: &CampaignSpec) -> Result<(), SpecError> {
    for (j, fabric) in spec.fabrics.iter().enumerate() {
        // A mesh radix too small for its direction ports is a shape
        // error, not a pattern one.
        let Some(endpoints) = spec.endpoints(fabric) else {
            continue;
        };
        for (i, pattern) in spec.patterns.iter().enumerate() {
            pattern.check(endpoints).map_err(|why| {
                invalid(
                    format!("patterns[{i}]"),
                    format!("{why} (on fabrics[{j}], {})", fabric.label()),
                )
            })?;
        }
    }
    Ok(())
}

/// Rejects a dragonfly its jobs could not build: a zero dimension or
/// fewer than two groups, a fabric whose radix cannot host the shape's
/// ports or more groups than its global channels reach, and a fault
/// plan that kills more wafer links than the shape has.
fn check_dragonfly(spec: &CampaignSpec) -> Result<(), SpecError> {
    let Topology::Dragonfly {
        routers_per_group,
        endpoints_per_router,
        global_per_router,
        groups,
        ..
    } = spec.topology
    else {
        return Ok(());
    };
    let shape = DragonflyConfig::try_new(
        routers_per_group,
        endpoints_per_router,
        global_per_router,
        groups,
    )
    .map_err(|e| match e {
        DragonflyError::ZeroDimension { field } => invalid(format!("topology.{field}"), e),
        _ => invalid("topology.groups", e),
    })?;
    for (i, fabric) in spec.fabrics.iter().enumerate() {
        shape.check_radix(fabric.radix()).map_err(|e| match e {
            DragonflyError::TooManyGroups { .. } => invalid("topology.groups", e),
            _ => invalid(format!("fabrics[{i}].radix"), e),
        })?;
    }
    for (i, fault) in spec.faults.iter().enumerate() {
        if fault.dead_tsvs > shape.wafer_links() {
            return Err(invalid(
                format!("faults[{i}].dead_tsvs"),
                format!(
                    "cannot kill {} of the {} wafer links of {groups} groups",
                    fault.dead_tsvs,
                    shape.wafer_links()
                ),
            ));
        }
    }
    Ok(())
}

fn topology_from_value(value: &Json) -> Result<Topology, SpecError> {
    match value {
        Json::Str(s) if s == "single-switch" => Ok(Topology::SingleSwitch),
        Json::Str(s) => Err(invalid("topology", format!("unknown topology {s:?}"))),
        Json::Obj(_) => match value.get("kind").and_then(Json::as_str) {
            Some("mesh") => Ok(Topology::Mesh {
                cols: require_usize(value, "cols", "topology")?,
                rows: require_usize(value, "rows", "topology")?,
                ports_per_direction: require_usize(value, "ports_per_direction", "topology")?,
                layer_aware: match value.get("layer_aware") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(as_usize(v, "topology.layer_aware")?),
                },
            }),
            Some("dragonfly") => Ok(Topology::Dragonfly {
                routers_per_group: require_usize(value, "routers_per_group", "topology")?,
                endpoints_per_router: require_usize(value, "endpoints_per_router", "topology")?,
                global_per_router: require_usize(value, "global_per_router", "topology")?,
                groups: require_usize(value, "groups", "topology")?,
                palmtree: match value.get("palmtree") {
                    None | Some(Json::Null) => false,
                    Some(Json::Bool(b)) => *b,
                    Some(_) => {
                        return Err(invalid("topology.palmtree", "expected a boolean"));
                    }
                },
            }),
            other => Err(invalid(
                "topology.kind",
                format!("expected \"mesh\" or \"dragonfly\", got {other:?}"),
            )),
        },
        _ => Err(invalid(
            "topology",
            "expected \"single-switch\", a mesh object or a dragonfly object",
        )),
    }
}

fn fabric_from_value(value: &Json, ctx: &str) -> Result<FabricSpec, SpecError> {
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| invalid(format!("{ctx}.kind"), "missing or non-string fabric kind"))?;
    match kind {
        "2d" => Ok(FabricSpec::Flat2d {
            radix: require_radix(value, ctx)?,
        }),
        "folded" => {
            let radix = require_radix(value, ctx)?;
            let layers = require_usize(value, "layers", ctx)?;
            if layers < 2 || !radix.is_multiple_of(layers) {
                return Err(invalid(
                    format!("{ctx}.layers"),
                    format!("radix {radix} does not fold over {layers} layers (at least 2)"),
                ));
            }
            Ok(FabricSpec::Folded { radix, layers })
        }
        "matching" => {
            let radix = require_radix(value, ctx)?;
            let policy_ctx = format!("{ctx}.policy");
            let name = value
                .get("policy")
                .map(|v| as_str(v, &policy_ctx))
                .transpose()?
                .ok_or_else(|| invalid(policy_ctx.clone(), "missing required field"))?;
            let iterations = match value.get("iterations") {
                None | Some(Json::Null) => None,
                Some(v) => Some(as_usize(v, &format!("{ctx}.iterations"))?),
            };
            let policy = match (name, iterations) {
                ("islip", Some(k)) if k > 0 => MatchPolicy::Islip { iterations: k },
                ("eslip", Some(k)) if k > 0 => MatchPolicy::Eslip { iterations: k },
                ("islip" | "eslip", _) => {
                    return Err(invalid(
                        format!("{ctx}.iterations"),
                        "islip/eslip need a positive iteration count",
                    ));
                }
                ("wavefront", None) => MatchPolicy::Wavefront,
                ("wavefront", Some(_)) => {
                    return Err(invalid(
                        format!("{ctx}.iterations"),
                        "wavefront takes no iteration count",
                    ));
                }
                (other, _) => {
                    return Err(invalid(
                        policy_ctx,
                        format!("unknown matching policy {other:?}"),
                    ));
                }
            };
            Ok(FabricSpec::Matching { radix, policy })
        }
        "hirise" => {
            let radix = require_usize(value, "radix", ctx)?;
            let layers = require_usize(value, "layers", ctx)?;
            let mut builder = HiRiseConfig::builder(radix, layers);
            if let Some(v) = value.get("c") {
                builder = builder.channel_multiplicity(as_usize(v, &format!("{ctx}.c"))?);
            }
            if let Some(v) = value.get("flit_bits") {
                builder = builder.flit_bits(as_usize(v, &format!("{ctx}.flit_bits"))?);
            }
            if let Some(v) = value.get("scheme") {
                let field = format!("{ctx}.scheme");
                builder = builder.scheme(scheme_from_label(as_str(v, &field)?, &field)?);
            }
            if let Some(v) = value.get("alloc") {
                let field = format!("{ctx}.alloc");
                builder = builder.allocation(allocation_from_label(as_str(v, &field)?, &field)?);
            }
            if let Some(v) = value.get("local") {
                let field = format!("{ctx}.local");
                builder = builder.local_arbiter(match as_str(v, &field)? {
                    "lrg" => LocalArbiterKind::Lrg,
                    "rr" => LocalArbiterKind::RoundRobin,
                    other => {
                        return Err(invalid(field, format!("unknown local arbiter {other:?}")))
                    }
                });
            }
            builder
                .build()
                .map(FabricSpec::HiRise)
                .map_err(|e| invalid(ctx.to_string(), e))
        }
        other => Err(invalid(
            format!("{ctx}.kind"),
            format!("unknown fabric kind {other:?}"),
        )),
    }
}

fn scheme_from_label(label: &str, ctx: &str) -> Result<ArbitrationScheme, SpecError> {
    match label {
        "lrg" => Ok(ArbitrationScheme::LayerToLayerLrg),
        "wlrg" => Ok(ArbitrationScheme::WeightedLrg),
        _ => match label.strip_prefix("clrg").and_then(|n| n.parse().ok()) {
            Some(0) => Err(invalid(ctx.to_string(), "clrg needs at least one class")),
            Some(classes) => Ok(ArbitrationScheme::ClassBased { classes }),
            None => Err(invalid(
                ctx.to_string(),
                format!("unknown arbitration scheme {label:?}"),
            )),
        },
    }
}

fn allocation_from_label(label: &str, ctx: &str) -> Result<ChannelAllocation, SpecError> {
    match label {
        "in" => Ok(ChannelAllocation::InputBinned),
        "out" => Ok(ChannelAllocation::OutputBinned),
        "pri" => Ok(ChannelAllocation::PriorityBased),
        other => Err(invalid(
            ctx.to_string(),
            format!("unknown channel allocation {other:?}"),
        )),
    }
}

fn pattern_from_label(label: &str, ctx: &str) -> Result<PatternSpec, SpecError> {
    let numbered =
        |prefix: &str| -> Option<usize> { label.strip_prefix(prefix).and_then(|n| n.parse().ok()) };
    match label {
        "uniform" => return Ok(PatternSpec::Uniform),
        "bursty" => return Ok(PatternSpec::Bursty),
        "transpose" => return Ok(PatternSpec::Transpose),
        "bitcomp" => return Ok(PatternSpec::BitComplement),
        "tornado" => return Ok(PatternSpec::Tornado),
        "neighbor" => return Ok(PatternSpec::NeighborShift),
        _ => {}
    }
    if let Some(output) = numbered("hotspot") {
        return Ok(PatternSpec::Hotspot { output });
    }
    if let Some(salt) = label.strip_prefix("randperm").and_then(|n| n.parse().ok()) {
        return Ok(PatternSpec::RandomPermutation { salt });
    }
    if let Some(layers) = numbered("interlayer") {
        return Ok(PatternSpec::InterLayerOnly { layers });
    }
    if let Some(layers) = numbered("worstl2lc") {
        return Ok(PatternSpec::WorstCaseL2lc { layers });
    }
    if let Some(fanin) = numbered("incast") {
        if fanin == 0 {
            return Err(invalid(ctx.to_string(), "incast fan-in must be positive"));
        }
        return Ok(PatternSpec::Incast { fanin });
    }
    if let Some(delay) = label.strip_prefix("rpc").and_then(|n| n.parse().ok()) {
        if delay == 0 {
            return Err(invalid(ctx.to_string(), "rpc delay must be positive"));
        }
        return Ok(PatternSpec::Rpc { delay });
    }
    if let Some(period) = label.strip_prefix("diurnal").and_then(|n| n.parse().ok()) {
        if period < 2 {
            return Err(invalid(
                ctx.to_string(),
                "diurnal period must be at least 2",
            ));
        }
        return Ok(PatternSpec::Diurnal { period });
    }
    Err(invalid(
        ctx.to_string(),
        format!("unknown traffic pattern {label:?}"),
    ))
}

fn fault_from_value(value: &Json, ctx: &str) -> Result<FaultSpec, SpecError> {
    expect_obj(value, ctx)?;
    let mut fault = FaultSpec::none();
    if let Some(v) = value.get("dead_tsvs") {
        fault.dead_tsvs = as_usize(v, &format!("{ctx}.dead_tsvs"))?;
    }
    if let Some(v) = value.get("dead_ports") {
        fault.dead_ports = as_usize(v, &format!("{ctx}.dead_ports"))?;
    }
    if let Some(v) = value.get("dead_crosspoints") {
        fault.dead_crosspoints = as_usize(v, &format!("{ctx}.dead_crosspoints"))?;
    }
    if let Some(v) = value.get("flaky_tsvs") {
        fault.flaky_tsvs = as_usize(v, &format!("{ctx}.flaky_tsvs"))?;
    }
    match value.get("flake_probability") {
        // The canonical writer maps non-finite probabilities to null;
        // they clamp to 0 at application time anyway.
        None | Some(Json::Null) => {}
        Some(v) => fault.flake_probability = as_f64(v, &format!("{ctx}.flake_probability"))?,
    }
    if let Some(v) = value.get("salt") {
        fault.salt = as_u64(v, &format!("{ctx}.salt"))?;
    }
    Ok(fault)
}

fn sim_from_value(value: &Json) -> Result<SimParams, SpecError> {
    expect_obj(value, "sim")?;
    let mut sim = SimParams::new();
    if let Some(v) = value.get("vcs") {
        sim.vcs = as_usize(v, "sim.vcs")?;
        // A port's VC occupancy mask is one `u64`.
        if !(1..=64).contains(&sim.vcs) {
            return Err(invalid("sim.vcs", "expected 1 to 64 virtual channels"));
        }
    }
    if let Some(v) = value.get("vc_depth") {
        sim.vc_depth_flits = as_usize(v, "sim.vc_depth")?;
    }
    if let Some(v) = value.get("packet_len") {
        sim.packet_len_flits = as_usize(v, "sim.packet_len")?;
        if sim.packet_len_flits == 0 {
            return Err(invalid("sim.packet_len", "a packet has at least one flit"));
        }
    }
    if let Some(v) = value.get("warmup") {
        sim.warmup = as_u64(v, "sim.warmup")?;
    }
    if let Some(v) = value.get("measure") {
        sim.measure = as_u64(v, "sim.measure")?;
    }
    if let Some(v) = value.get("drain") {
        sim.drain = as_u64(v, "sim.drain")?;
    }
    match value.get("window") {
        None => {}
        Some(Json::Null) => sim.window = None,
        Some(v) => match as_usize(v, "sim.window")? {
            0 => {
                return Err(invalid(
                    "sim.window",
                    "a window of 0 outstanding packets sends nothing; use null for no window",
                ));
            }
            window => sim.window = Some(window),
        },
    }
    if let Some(v) = value.get("record_invariants") {
        sim.record_invariants = v
            .as_bool()
            .ok_or_else(|| invalid("sim.record_invariants", "expected a boolean"))?;
    }
    Ok(sim)
}

fn expect_obj<'a>(
    value: &'a Json,
    ctx: &str,
) -> Result<&'a std::collections::BTreeMap<String, Json>, SpecError> {
    match value {
        Json::Obj(map) => Ok(map),
        _ => Err(invalid(ctx.to_string(), "expected a JSON object")),
    }
}

fn as_str<'a>(value: &'a Json, ctx: &str) -> Result<&'a str, SpecError> {
    value
        .as_str()
        .ok_or_else(|| invalid(ctx.to_string(), "expected a string"))
}

fn as_arr<'a>(value: &'a Json, ctx: &str) -> Result<&'a [Json], SpecError> {
    value
        .as_arr()
        .ok_or_else(|| invalid(ctx.to_string(), "expected an array"))
}

fn as_u64(value: &Json, ctx: &str) -> Result<u64, SpecError> {
    value
        .as_u64()
        .ok_or_else(|| invalid(ctx.to_string(), "expected a non-negative integer"))
}

fn as_f64(value: &Json, ctx: &str) -> Result<f64, SpecError> {
    value
        .as_f64()
        .ok_or_else(|| invalid(ctx.to_string(), "expected a number"))
}

fn as_usize(value: &Json, ctx: &str) -> Result<usize, SpecError> {
    usize::try_from(as_u64(value, ctx)?)
        .map_err(|_| invalid(ctx.to_string(), "integer out of range"))
}

fn require_str<'a>(
    obj: &'a std::collections::BTreeMap<String, Json>,
    key: &str,
    ctx: &str,
) -> Result<&'a str, SpecError> {
    obj.get(key)
        .ok_or_else(|| invalid(format!("{ctx}.{key}"), "missing required field"))?
        .as_str()
        .ok_or_else(|| invalid(format!("{ctx}.{key}"), "expected a string"))
}

/// A fabric's `radix`, which must be at least 1.
fn require_radix(value: &Json, ctx: &str) -> Result<usize, SpecError> {
    match require_usize(value, "radix", ctx)? {
        0 => Err(invalid(format!("{ctx}.radix"), "radix must be at least 1")),
        radix => Ok(radix),
    }
}

fn require_usize(value: &Json, key: &str, ctx: &str) -> Result<usize, SpecError> {
    let field = value
        .get(key)
        .ok_or_else(|| invalid(format!("{ctx}.{key}"), "missing required field"))?;
    as_usize(field, &format!("{ctx}.{key}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DEFAULT_SEED;

    #[test]
    fn minimal_spec_takes_defaults() {
        let spec = campaign_from_json(r#"{"name":"tiny"}"#).unwrap();
        assert_eq!(spec.name, "tiny");
        assert_eq!(spec.master_seed, DEFAULT_SEED);
        assert_eq!(spec.topology, Topology::SingleSwitch);
        assert_eq!(spec.replicates, 1);
        assert_eq!(spec.sim, SimParams::new());
        assert!(spec.fabrics.is_empty() && spec.loads.is_empty());
    }

    #[test]
    fn canonical_json_round_trips() {
        let spec = CampaignSpec::new("rt")
            .master_seed(u64::MAX - 3)
            .fabric(FabricSpec::Flat2d { radix: 16 })
            .fabric(FabricSpec::hirise(
                HiRiseConfig::builder(16, 2)
                    .channel_multiplicity(2)
                    .build()
                    .unwrap(),
            ))
            .scheme(ArbitrationScheme::WeightedLrg)
            .allocation(ChannelAllocation::OutputBinned)
            .fabric(FabricSpec::Matching {
                radix: 16,
                policy: MatchPolicy::Islip { iterations: 2 },
            })
            .fabric(FabricSpec::Matching {
                radix: 16,
                policy: MatchPolicy::Wavefront,
            })
            .pattern(PatternSpec::Uniform)
            .pattern(PatternSpec::Hotspot { output: 3 })
            .pattern(PatternSpec::Incast { fanin: 4 })
            .pattern(PatternSpec::Rpc { delay: 8 })
            .pattern(PatternSpec::Diurnal { period: 256 })
            .loads([0.05, 0.15, 1.0])
            .fault(FaultSpec::dead_tsv_bundles(1).with_flaky_tsvs(2, 0.25))
            .replicates(3)
            .sim(SimParams::quick().window(Some(4)));
        let parsed = campaign_from_json(&spec.canonical_json()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.digest(), spec.digest());
    }

    #[test]
    fn mesh_topology_round_trips() {
        let spec = CampaignSpec::new("mesh").topology(Topology::Mesh {
            cols: 5,
            rows: 5,
            ports_per_direction: 2,
            layer_aware: Some(4),
        });
        assert_eq!(campaign_from_json(&spec.canonical_json()).unwrap(), spec);
    }

    #[test]
    fn dragonfly_topology_round_trips() {
        let spec = CampaignSpec::new("wafer").topology(Topology::Dragonfly {
            routers_per_group: 4,
            endpoints_per_router: 4,
            global_per_router: 2,
            groups: 9,
            palmtree: true,
        });
        assert_eq!(campaign_from_json(&spec.canonical_json()).unwrap(), spec);
    }

    #[test]
    fn shards_knob_parses_but_never_reaches_the_canonical_schema() {
        let spec = campaign_from_json(r#"{"name":"x","shards":8}"#).expect("shards field accepted");
        assert_eq!(spec.shards, 8);
        assert!(
            !spec.canonical_json().contains("shards"),
            "shards is an execution knob, not campaign identity"
        );
        assert_eq!(spec.digest(), CampaignSpec::new("x").digest());
    }

    /// A dragonfly campaign on one 2D fabric, with one fault plan
    /// killing `dead` wafer links.
    fn dragonfly(a: usize, p: usize, h: usize, groups: usize, radix: usize, dead: usize) -> String {
        format!(
            r#"{{"name":"x","topology":{{"kind":"dragonfly","routers_per_group":{a},"endpoints_per_router":{p},"global_per_router":{h},"groups":{groups}}},"fabrics":[{{"kind":"2d","radix":{radix}}}],"faults":[{{"dead_tsvs":{dead}}}]}}"#
        )
    }

    /// A single-switch campaign of `pattern` on one 2D fabric of `radix`.
    fn on_switch(radix: usize, pattern: &str) -> String {
        format!(
            r#"{{"name":"x","fabrics":[{{"kind":"2d","radix":{radix}}}],"patterns":["{pattern}"]}}"#
        )
    }

    /// A mesh campaign of `cols x rows` routers with `ports` per
    /// direction and, if given, a layer-aware port map, on one 2D
    /// fabric of `radix`.
    fn mesh(cols: usize, rows: usize, ports: usize, radix: usize, layers: Option<usize>) -> String {
        let layer_aware = layers.map_or("null".to_string(), |l| l.to_string());
        format!(
            r#"{{"name":"x","topology":{{"kind":"mesh","cols":{cols},"rows":{rows},"ports_per_direction":{ports},"layer_aware":{layer_aware}}},"fabrics":[{{"kind":"2d","radix":{radix}}}]}}"#
        )
    }

    /// A campaign of `pattern` on a 12-endpoint dragonfly (3 groups of
    /// 2 routers with 2 endpoints each).
    fn on_dragonfly(pattern: &str) -> String {
        format!(
            r#"{{"name":"x","topology":{{"kind":"dragonfly","routers_per_group":2,"endpoints_per_router":2,"global_per_router":1,"groups":3}},"fabrics":[{{"kind":"2d","radix":8}}],"patterns":["{pattern}"]}}"#
        )
    }

    #[test]
    fn bad_specs_are_typed_errors_not_panics() {
        for (text, fragment) in [
            (r#"{"master_seed":1}"#, "spec.name"),
            (r#"{"name":"x","fabrics":[{"kind":"warp"}]}"#, "kind"),
            (r#"{"name":"x","fabrics":[{"kind":"2d"}]}"#, "radix"),
            (
                // radix not divisible by layers: rejected by the builder.
                r#"{"name":"x","fabrics":[{"kind":"hirise","radix":10,"layers":4}]}"#,
                "fabrics[0]",
            ),
            (r#"{"name":"x","patterns":["warp9"]}"#, "patterns[0]"),
            (r#"{"name":"x","patterns":["rpc0"]}"#, "patterns[0]"),
            (r#"{"name":"x","patterns":["diurnal1"]}"#, "patterns[0]"),
            (r#"{"name":"x","patterns":["incast0"]}"#, "patterns[0]"),
            (
                r#"{"name":"x","fabrics":[{"kind":"matching","radix":16,"policy":"islip"}]}"#,
                "iterations",
            ),
            (
                r#"{"name":"x","fabrics":[{"kind":"matching","radix":16,"policy":"islip","iterations":0}]}"#,
                "iterations",
            ),
            (
                r#"{"name":"x","fabrics":[{"kind":"matching","radix":16,"policy":"maxmatch","iterations":1}]}"#,
                "policy",
            ),
            (
                r#"{"name":"x","fabrics":[{"kind":"matching","radix":16,"policy":"wavefront","iterations":2}]}"#,
                "iterations",
            ),
            (r#"{"name":"x","loads":[-0.5]}"#, "loads[0]"),
            (r#"{"name":"x","schemes":["clrg"]}"#, "schemes[0]"),
            (r#"{"name":"x","topology":"ring"}"#, "topology"),
            ("[]", "spec"),
            // Each of these parsed and, given a fabric, panicked the
            // worker.
            (r#"{"name":"x","sim":{"vcs":0}}"#, "sim.vcs"),
            (r#"{"name":"x","sim":{"vcs":65}}"#, "sim.vcs"),
            (
                r#"{"name":"x","sim":{"packet_len":8,"vc_depth":4}}"#,
                "sim.packet_len",
            ),
            (r#"{"name":"x","sim":{"vc_depth":0}}"#, "sim.packet_len"),
            // Dragonfly shapes no job can build.
            (&dragonfly(2, 2, 1, 1, 8, 0), "topology.groups"),
            (&dragonfly(0, 2, 1, 2, 8, 0), "topology.routers_per_group"),
            (
                &dragonfly(2, 0, 1, 2, 8, 0),
                "topology.endpoints_per_router",
            ),
            (&dragonfly(2, 2, 0, 2, 8, 0), "topology.global_per_router"),
            // p + a - 1 + h = 2 + 1 + 1 = 4 ports on radix-3 routers.
            (&dragonfly(2, 2, 1, 2, 3, 0), "fabrics[0].radix"),
            // a * h + 1 = 3 groups at most.
            (&dragonfly(2, 2, 1, 4, 8, 0), "topology.groups"),
            // 3 groups have 3 wafer links.
            (&dragonfly(2, 2, 1, 3, 8, 4), "faults[0].dead_tsvs"),
            // Mesh shapes no job can build.
            (&mesh(0, 2, 1, 16, None), "topology.cols"),
            (&mesh(2, 0, 1, 16, None), "topology.rows"),
            (&mesh(2, 2, 0, 16, None), "topology.ports_per_direction"),
            // 4 x 4 direction ports leave no core on radix 16.
            (&mesh(2, 2, 4, 16, None), "fabrics[0].radix"),
            (&mesh(2, 2, 5, 16, None), "fabrics[0].radix"),
            (&mesh(2, 2, 1, 16, Some(0)), "topology.layer_aware"),
            (&mesh(2, 2, 1, 16, Some(3)), "topology.layer_aware"),
            (&mesh(2, 2, 1, 16, Some(32)), "topology.layer_aware"),
            // Each of these parsed and then panicked the worker.
            (&on_switch(16, "hotspot99"), "patterns[0]"),
            (&on_switch(8, "transpose"), "patterns[0]"),
            (&on_switch(1, "tornado"), "patterns[0]"),
            (&on_switch(16, "interlayer0"), "patterns[0]"),
            (&on_switch(16, "interlayer3"), "patterns[0]"),
            (&on_switch(16, "worstl2lc0"), "patterns[0]"),
            (&on_switch(16, "worstl2lc3"), "patterns[0]"),
            (&on_switch(16, "incast99"), "patterns[0]"),
            (&on_dragonfly("transpose"), "patterns[0]"),
            (
                r#"{"name":"x","fabrics":[{"kind":"2d","radix":0}]}"#,
                "fabrics[0].radix",
            ),
            (
                r#"{"name":"x","fabrics":[{"kind":"matching","radix":0,"policy":"wavefront"}]}"#,
                "fabrics[0].radix",
            ),
            (
                r#"{"name":"x","fabrics":[{"kind":"folded","radix":16,"layers":0}]}"#,
                "fabrics[0].layers",
            ),
            (
                r#"{"name":"x","fabrics":[{"kind":"folded","radix":16,"layers":3}]}"#,
                "fabrics[0].layers",
            ),
            // Each of these ran without sending anything.
            (r#"{"name":"x","sim":{"packet_len":0}}"#, "sim.packet_len"),
            (r#"{"name":"x","sim":{"window":0}}"#, "sim.window"),
            (&on_dragonfly("hotspot20"), "patterns[0]"),
            (r#"{"name":"x","schemes":["clrg0"]}"#, "schemes[0]"),
        ] {
            let err = campaign_from_json(text).unwrap_err();
            assert!(matches!(err, SpecError::Invalid { .. }), "{text}: {err}");
            assert!(
                err.to_string().contains(fragment),
                "{text}: {err} should mention {fragment}"
            );
        }
        // The largest valid shape of that family still parses.
        assert!(campaign_from_json(&dragonfly(2, 2, 1, 3, 4, 3)).is_ok());
        // As do the valid meshes beside the rejected ones.
        for text in [
            mesh(1, 1, 3, 16, None),
            mesh(2, 2, 1, 16, Some(1)),
            mesh(2, 2, 1, 16, Some(4)),
            mesh(2, 2, 1, 16, Some(16)),
        ] {
            assert!(campaign_from_json(&text).is_ok(), "{text}");
        }
        // Each pattern at the edge of what its endpoints carry parses.
        for (radix, pattern) in [
            (16, "hotspot15"),
            (16, "transpose"),
            (2, "tornado"),
            (16, "interlayer4"),
            (16, "worstl2lc2"),
            (16, "incast16"),
        ] {
            let text = on_switch(radix, pattern);
            assert!(campaign_from_json(&text).is_ok(), "{text}");
        }
        assert!(campaign_from_json(&on_dragonfly("hotspot11")).is_ok());
        assert!(campaign_from_json(r#"{"name":"x","schemes":["clrg1"]}"#).is_ok());
        // The network engine does not read the VC depth, so a mesh may
        // carry packets longer than it.
        let mesh = r#"{"name":"x","topology":{"kind":"mesh","cols":2,"rows":2,"ports_per_direction":1},"sim":{"packet_len":8,"vc_depth":4}}"#;
        assert!(campaign_from_json(mesh).is_ok());
        assert!(matches!(
            campaign_from_json("{not json").unwrap_err(),
            SpecError::Json(_)
        ));
    }

    #[test]
    fn all_pattern_labels_round_trip() {
        let patterns = [
            PatternSpec::Uniform,
            PatternSpec::Hotspot { output: 7 },
            PatternSpec::Bursty,
            PatternSpec::Transpose,
            PatternSpec::BitComplement,
            PatternSpec::Tornado,
            PatternSpec::NeighborShift,
            PatternSpec::RandomPermutation { salt: 99 },
            PatternSpec::InterLayerOnly { layers: 4 },
            PatternSpec::WorstCaseL2lc { layers: 2 },
            PatternSpec::Incast { fanin: 8 },
            PatternSpec::Rpc { delay: 16 },
            PatternSpec::Diurnal { period: 512 },
        ];
        for p in patterns {
            let parsed = pattern_from_label(&p.label(), "test").unwrap();
            assert_eq!(parsed, p, "{}", p.label());
        }
    }
}
