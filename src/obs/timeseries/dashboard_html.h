#ifndef CLAIMS_OBS_TIMESERIES_DASHBOARD_HTML_H_
#define CLAIMS_OBS_TIMESERIES_DASHBOARD_HTML_H_

namespace claims {

/// The /dash page: a single self-contained HTML document (no external
/// assets, works from a curl'd file) that polls /timeseries and renders the
/// four headline panels — throughput, tail latency, memory, scheduler — as
/// small-multiple line charts on one shared time axis, with fault/anomaly
/// annotations drawn as vertical markers. Colors follow the repo's chart
/// palette (light + dark via prefers-color-scheme with a data-theme
/// override); each panel carries exactly one series, so the panel title, not
/// hue, carries identity.
inline constexpr const char kDashboardHtml[] = R"claimsdash(<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>claims · live telemetry</title>
<style>
  .viz-root {
    color-scheme: light;
    --page:           #f9f9f7;
    --surface-1:      #fcfcfb;
    --text-primary:   #0b0b0b;
    --text-secondary: #52514e;
    --text-muted:     #898781;
    --grid:           #e1e0d9;
    --baseline:       #c3c2b7;
    --border:         rgba(11,11,11,0.10);
    --series-1:       #2a78d6;
    --series-2:       #eb6834;
    --series-3:       #1baf7a;
    --status-critical:#d03b3b;
  }
  @media (prefers-color-scheme: dark) {
    :root:where(:not([data-theme="light"])) .viz-root {
      color-scheme: dark;
      --page:           #0d0d0d;
      --surface-1:      #1a1a19;
      --text-primary:   #ffffff;
      --text-secondary: #c3c2b7;
      --text-muted:     #898781;
      --grid:           #2c2c2a;
      --baseline:       #383835;
      --border:         rgba(255,255,255,0.10);
      --series-1:       #3987e5;
      --series-2:       #d95926;
      --series-3:       #199e70;
      --status-critical:#d03b3b;
    }
  }
  :root[data-theme="dark"] .viz-root {
    color-scheme: dark;
    --page:           #0d0d0d;
    --surface-1:      #1a1a19;
    --text-primary:   #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted:     #898781;
    --grid:           #2c2c2a;
    --baseline:       #383835;
    --border:         rgba(255,255,255,0.10);
    --series-1:       #3987e5;
    --series-2:       #d95926;
    --series-3:       #199e70;
    --status-critical:#d03b3b;
  }
  * { box-sizing: border-box; }
  body.viz-root {
    margin: 0; padding: 20px;
    background: var(--page); color: var(--text-primary);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  header { display: flex; align-items: baseline; gap: 14px; margin-bottom: 16px; }
  header h1 { font-size: 17px; font-weight: 650; margin: 0; }
  header .sub { color: var(--text-secondary); font-size: 13px; }
  header nav { margin-left: auto; display: flex; gap: 12px; font-size: 13px; }
  header nav a { color: var(--text-secondary); text-decoration: none; }
  header nav a:hover { color: var(--text-primary); text-decoration: underline; }
  .grid { display: grid; grid-template-columns: repeat(auto-fit, minmax(340px, 1fr)); gap: 14px; }
  .card {
    background: var(--surface-1); border: 1px solid var(--border);
    border-radius: 8px; padding: 14px 14px 8px;
  }
  .card h2 { font-size: 13px; font-weight: 600; margin: 0; color: var(--text-secondary); }
  .card .hero { font-size: 26px; font-weight: 650; margin: 2px 0 6px; color: var(--text-primary); }
  .card .hero small { font-size: 13px; font-weight: 500; color: var(--text-muted); margin-left: 4px; }
  .card canvas { width: 100%; height: 150px; display: block; cursor: crosshair; }
  #tooltip {
    position: fixed; pointer-events: none; display: none; z-index: 10;
    background: var(--surface-1); color: var(--text-primary);
    border: 1px solid var(--border); border-radius: 6px;
    padding: 6px 9px; font-size: 12px; box-shadow: 0 2px 10px rgba(0,0,0,0.18);
    max-width: 320px;
  }
  #tooltip .t { color: var(--text-muted); font-variant-numeric: tabular-nums; }
  #tooltip .fault { color: var(--status-critical); }
  footer { margin-top: 14px; color: var(--text-muted); font-size: 12px; }
  footer a { color: var(--text-secondary); }
  #status { font-variant-numeric: tabular-nums; }
</style>
</head>
<body class="viz-root">
<header>
  <h1>claims · live telemetry</h1>
  <span class="sub" id="status">connecting…</span>
  <nav>
    <a href="/timeseries">json</a>
    <a href="/timeseries?format=text">text</a>
    <a href="/metrics">metrics</a>
    <a href="/queries">queries</a>
  </nav>
</header>
<div class="grid" id="grid"></div>
<div id="tooltip"></div>
<footer>
  Polling <code>/timeseries?window=300</code> every 2 s. Vertical markers are
  <span style="color:var(--status-critical)">▮</span> fault / anomaly annotations
  (hover for labels). Raw series: <a href="/timeseries?format=text">table view</a>.
</footer>
<script>
"use strict";
// Each panel plots exactly ONE series (small multiples, shared time axis);
// the panel title carries identity, so no legend is needed. `pick` chooses
// the first series whose name matches, so the page degrades gracefully when
// a subsystem (e.g. the workload driver) is not running.
const PANELS = [
  { id: "throughput", title: "Throughput", unit: "qps", color: "--series-1",
    pick: ["wlm.driver.completed"], scale: 1 },
  { id: "latency", title: "Query latency p99", unit: "ms", color: "--series-2",
    pick: ["wlm.driver.latency_ns.p99"], scale: 1e-6 },
  { id: "memory", title: "Memory charged", unit: "MB", color: "--series-3",
    pick: ["mem.charged_bytes", "process.rss_bytes"],
    scale: 1 / (1024 * 1024) },
  { id: "scheduler", title: "Scheduler activity", unit: "/s", color: "--series-1",
    pick: ["scheduler.ticks", "scheduler.expansions", "elastic.expansions"],
    scale: 1 },
];
const grid = document.getElementById("grid");
const tooltip = document.getElementById("tooltip");
const charts = new Map();
for (const p of PANELS) {
  const card = document.createElement("div");
  card.className = "card";
  card.innerHTML =
    `<h2>${p.title}</h2><div class="hero" id="hero-${p.id}">–</div>` +
    `<canvas id="cv-${p.id}"></canvas>`;
  grid.appendChild(card);
  charts.set(p.id, { panel: p, canvas: card.querySelector("canvas"),
                     hero: card.querySelector(".hero"), data: [], anns: [] });
}
function cssVar(name) {
  return getComputedStyle(document.body).getPropertyValue(name).trim();
}
function fmt(v) {
  if (!isFinite(v)) return "–";
  if (Math.abs(v) >= 1000) return v.toFixed(0);
  if (Math.abs(v) >= 10) return v.toFixed(1);
  return v.toFixed(2);
}
function draw(ch) {
  const cv = ch.canvas, dpr = window.devicePixelRatio || 1;
  const w = cv.clientWidth, h = cv.clientHeight;
  if (cv.width !== w * dpr || cv.height !== h * dpr) {
    cv.width = w * dpr; cv.height = h * dpr;
  }
  const ctx = cv.getContext("2d");
  ctx.setTransform(dpr, 0, 0, dpr, 0, 0);
  ctx.clearRect(0, 0, w, h);
  const padL = 42, padR = 6, padT = 6, padB = 16;
  const pw = w - padL - padR, ph = h - padT - padB;
  const data = ch.data;
  ctx.strokeStyle = cssVar("--baseline");
  ctx.lineWidth = 1;
  ctx.beginPath();
  ctx.moveTo(padL, padT + ph + 0.5); ctx.lineTo(padL + pw, padT + ph + 0.5);
  ctx.stroke();
  if (data.length === 0) {
    ctx.fillStyle = cssVar("--text-muted");
    ctx.font = "12px system-ui, sans-serif";
    ctx.fillText("no samples yet", padL + 8, padT + ph / 2);
    return;
  }
  const t0 = ch.t0, t1 = ch.t1;
  let vmax = 0;
  for (const [, v] of data) vmax = Math.max(vmax, v);
  if (vmax <= 0) vmax = 1;
  vmax *= 1.1;  // headroom so the peak is not glued to the top
  const X = t => padL + (t1 > t0 ? (t - t0) / (t1 - t0) : 0) * pw;
  const Y = v => padT + ph - (v / vmax) * ph;
  // recessive horizontal gridlines + tick labels in muted ink
  ctx.strokeStyle = cssVar("--grid");
  ctx.fillStyle = cssVar("--text-muted");
  ctx.font = "10px system-ui, sans-serif";
  ctx.textAlign = "right";
  for (const frac of [0.5, 1.0]) {
    const v = vmax * frac / 1.1, y = Y(v) + 0.5;
    ctx.beginPath(); ctx.moveTo(padL, y); ctx.lineTo(padL + pw, y); ctx.stroke();
    ctx.fillText(fmt(v), padL - 5, y + 3);
  }
  ctx.textAlign = "left";
  // fault / anomaly annotation markers: status-critical, dashed, behind data
  ctx.save();
  ctx.strokeStyle = cssVar("--status-critical");
  ctx.setLineDash([3, 3]);
  for (const a of ch.anns) {
    const x = X(a.t) + 0.5;
    if (x < padL || x > padL + pw) continue;
    ctx.globalAlpha = a.begin ? 0.85 : 0.4;
    ctx.beginPath(); ctx.moveTo(x, padT); ctx.lineTo(x, padT + ph); ctx.stroke();
  }
  ctx.restore();
  // the series itself: 2px line in its assigned slot color
  ctx.strokeStyle = cssVar(ch.panel.color);
  ctx.lineWidth = 2;
  ctx.lineJoin = "round";
  ctx.beginPath();
  data.forEach(([t, v], i) => {
    const x = X(t), y = Y(v);
    if (i === 0) ctx.moveTo(x, y); else ctx.lineTo(x, y);
  });
  ctx.stroke();
  // hover crosshair + nearest-sample marker
  if (ch.hoverX != null) {
    let best = 0, bestD = Infinity;
    data.forEach(([t], i) => {
      const d = Math.abs(X(t) - ch.hoverX);
      if (d < bestD) { bestD = d; best = i; }
    });
    const [t, v] = data[best];
    ctx.strokeStyle = cssVar("--text-muted");
    ctx.lineWidth = 1;
    ctx.beginPath();
    ctx.moveTo(X(t) + 0.5, padT); ctx.lineTo(X(t) + 0.5, padT + ph);
    ctx.stroke();
    ctx.fillStyle = cssVar(ch.panel.color);
    ctx.beginPath(); ctx.arc(X(t), Y(v), 4, 0, Math.PI * 2); ctx.fill();
    ctx.strokeStyle = cssVar("--surface-1");
    ctx.lineWidth = 2;
    ctx.beginPath(); ctx.arc(X(t), Y(v), 4, 0, Math.PI * 2); ctx.stroke();
    ch.hoverSample = { t, v };
  }
}
function attachHover(ch) {
  const cv = ch.canvas;
  cv.addEventListener("mousemove", e => {
    const r = cv.getBoundingClientRect();
    ch.hoverX = e.clientX - r.left;
    draw(ch);
    if (!ch.hoverSample) return;
    const { t, v } = ch.hoverSample;
    const near = ch.anns.filter(a => Math.abs(a.t - t) <= ch.span * 0.03);
    let html = `<div class="t">t+${fmt((t - ch.t0) / 1e9)} s</div>` +
               `<div>${ch.panel.title}: <b>${fmt(v)}</b> ${ch.panel.unit}</div>`;
    for (const a of near.slice(0, 4)) {
      html += `<div class="fault">⚠ ${a.begin ? "" : "cleared: "}${a.label}</div>`;
    }
    tooltip.innerHTML = html;
    tooltip.style.display = "block";
    tooltip.style.left = Math.min(e.clientX + 14, window.innerWidth - 330) + "px";
    tooltip.style.top = (e.clientY + 14) + "px";
  });
  cv.addEventListener("mouseleave", () => {
    ch.hoverX = null; ch.hoverSample = null;
    tooltip.style.display = "none";
    draw(ch);
  });
}
charts.forEach(attachHover);
async function poll() {
  try {
    const resp = await fetch("/timeseries?window=300");
    const body = await resp.json();
    const byName = new Map((body.series || []).map(s => [s.name, s]));
    const anns = (body.annotations || [])
        .map(a => ({ t: a.t_ns, label: a.label, begin: a.begin }));
    let t0 = Infinity, t1 = -Infinity;
    for (const s of byName.values()) {
      for (const [t] of s.samples) { t0 = Math.min(t0, t); t1 = Math.max(t1, t); }
    }
    if (!isFinite(t0)) { t0 = body.now_ns - 1; t1 = body.now_ns; }
    charts.forEach(ch => {
      const p = ch.panel;
      let s = null;
      for (const name of p.pick) { if (byName.has(name)) { s = byName.get(name); break; } }
      ch.data = s ? s.samples.map(([t, v]) => [t, v * p.scale]) : [];
      ch.anns = anns;
      ch.t0 = t0; ch.t1 = t1; ch.span = Math.max(1, t1 - t0);
      const last = ch.data.length ? ch.data[ch.data.length - 1][1] : NaN;
      ch.hero.innerHTML = isFinite(last)
          ? `${fmt(last)}<small>${p.unit}</small>` : "–";
      draw(ch);
    });
    const n = byName.size, na = anns.length;
    document.getElementById("status").textContent =
        `${n} series · ${na} annotation${na === 1 ? "" : "s"} · live`;
  } catch (err) {
    document.getElementById("status").textContent = "poll failed: " + err.message;
  }
}
poll();
setInterval(poll, 2000);
window.addEventListener("resize", () => charts.forEach(draw));
</script>
</body>
</html>
)claimsdash";

}  // namespace claims

#endif  // CLAIMS_OBS_TIMESERIES_DASHBOARD_HTML_H_
