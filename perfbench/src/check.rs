//! Independent output checks.
//!
//! Every returned layout is re-verified here from the netlist and the
//! layout geometry alone — never from `LayoutReport`'s own flags.

use rfic_core::{drc_check, DrcOptions, Layout};
use rfic_geom::{equivalent_length, Point, Polyline};
use rfic_netlist::Netlist;

/// Largest accepted strip length error, µm (the flow's own tolerance).
pub const LENGTH_TOLERANCE: f64 = 1e-3;

/// SVG coordinates are printed with two decimals; each printed point may
/// be off by 0.005 µm per axis, so a route's length may drift by this
/// much per segment.
const SVG_SEGMENT_SLACK: f64 = 0.02;

/// Quality figures of one verified layout.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub total_bends: usize,
    pub max_bends: usize,
    pub max_length_error: f64,
}

/// Verifies a layout returned in-process: complete, every strip within
/// [`LENGTH_TOLERANCE`] of its target, and DRC-clean.
pub fn layout(netlist: &Netlist, layout: &Layout) -> Result<Quality, String> {
    if !layout.is_complete(netlist) {
        return Err(format!("{}: layout is incomplete", netlist.name()));
    }
    let mut max_length_error: f64 = 0.0;
    for strip in netlist.microstrips() {
        let error = layout
            .length_error(netlist, strip.id)
            .ok_or_else(|| format!("{}: strip {} unrouted", netlist.name(), strip.name))?;
        if error.abs() > LENGTH_TOLERANCE {
            return Err(format!(
                "{}: strip {} is {error:+.4} µm off its length",
                netlist.name(),
                strip.name
            ));
        }
        max_length_error = max_length_error.max(error.abs());
    }
    let drc = drc_check(netlist, layout, &DrcOptions::default());
    if !drc.is_clean() {
        return Err(format!(
            "{}: {} DRC violation(s)",
            netlist.name(),
            drc.len()
        ));
    }
    Ok(Quality {
        total_bends: layout.total_bends(),
        max_bends: layout.max_bends(),
        max_length_error,
    })
}

/// Verifies an SVG returned by `serve` against the netlist it was asked
/// to lay out: one rectangle per device plus the frame, one polyline per
/// strip, every route rectilinear, inside the area and at its target
/// length (within the SVG's print precision).
pub fn svg(netlist: &Netlist, svg: &str) -> Result<Quality, String> {
    let name = netlist.name();
    let rects = svg.matches("<rect").count();
    if rects != netlist.devices().len() + 1 {
        return Err(format!(
            "{name}: SVG has {rects} rects for {} devices",
            netlist.devices().len()
        ));
    }
    let routes: Vec<&str> = svg
        .split("<polyline points=\"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap_or(""))
        .collect();
    let strips = netlist.microstrips();
    if routes.len() != strips.len() {
        return Err(format!(
            "{name}: SVG has {} routes for {} strips",
            routes.len(),
            strips.len()
        ));
    }
    let (width, height) = netlist.area();
    let mut quality = Quality {
        total_bends: 0,
        max_bends: 0,
        max_length_error: 0.0,
    };
    for (strip, points) in strips.iter().zip(routes) {
        let points = points
            .split_whitespace()
            .map(|pair| {
                let (x, y) = pair.split_once(',')?;
                Some(Point::new(x.parse().ok()?, y.parse().ok()?))
            })
            .collect::<Option<Vec<Point>>>()
            .ok_or_else(|| format!("{name}: unparsable route for {}", strip.name))?;
        if points
            .iter()
            .any(|p| p.x < -0.01 || p.y < -0.01 || p.x > width + 0.01 || p.y > height + 0.01)
        {
            return Err(format!("{name}: route {} leaves the area", strip.name));
        }
        let segments = points.len().saturating_sub(1) as f64;
        let route = Polyline::new(points)
            .map_err(|e| format!("{name}: route {} is not rectilinear: {e:?}", strip.name))?;
        let error = equivalent_length(&route, netlist.tech().bend_delta) - strip.target_length;
        if error.abs() > LENGTH_TOLERANCE + SVG_SEGMENT_SLACK * segments {
            return Err(format!(
                "{name}: route {} is {error:+.3} µm off its length",
                strip.name
            ));
        }
        quality.total_bends += route.bend_count();
        quality.max_bends = quality.max_bends.max(route.bend_count());
        quality.max_length_error = quality.max_length_error.max(error.abs());
    }
    Ok(quality)
}
