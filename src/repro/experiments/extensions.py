"""Extension experiments beyond the paper's evaluation section.

These exercise the systems the paper describes but does not evaluate:
the PocketWeb content cloudlet (intro, Section 3.2), the ads cloudlet
(Figure 1, Section 7), the PCM index tier (Section 3.3), and the battery
framing of the energy results.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.management import ChargeState
from repro.experiments.common import default_content, default_log
from repro.pocketads import AdsCloudlet
from repro.pocketweb import PocketWebCloudlet
from repro.pocketweb.pages import PageModel
from repro.radio.energy import isolated_request_energy, isolated_request_latency
from repro.radio.models import THREE_G
from repro.sim.battery import Battery
from repro.sim.replay import CacheMode, make_cache, select_replay_users
from repro.storage.hierarchy import MemoryHierarchy
from repro.storage.pcm import Pcm

KB = 1024
MB = 1024**2
DAY = 86400.0


def pocketweb_replay(
    users: int = 20, budget_mb: int = 64, seed: int = 23
) -> Dict[str, float]:
    """Replay users' clicked-URL streams through PocketWeb.

    The visit stream is the clicked-result URL sequence of the search
    log (the same source the paper's revisit statistic comes from).
    Compares against downloading every page over 3G.
    """
    log = default_log(seed=seed)
    selected = select_replay_users(log, month=1, users_per_class=users // 4 or 1)
    charging = ChargeState(charging=True, on_fast_link=True)
    page_model = PageModel()

    hit_rates: List[float] = []
    cloudlet_energy = 0.0
    nocache_energy = 0.0
    radio_bytes = 0
    nocache_bytes = 0
    visits = 0
    for uids in selected.values():
        for uid in uids:
            stream = log.for_user(uid).month(1)
            web = PocketWebCloudlet(budget_bytes=budget_mb * MB, page_model=page_model)
            day = 30  # month 1 starts at day 30
            for i in range(stream.n_events):
                t = float(stream.timestamps[i])
                while t // DAY > day:
                    day += 1
                    web.overnight_update(day * DAY, charging)
                url = stream.result_url(int(stream.result_keys[i]))
                outcome = web.browse(url, t)
                cloudlet_energy += outcome.energy_j
                radio_bytes += outcome.bytes_over_radio
                page = page_model.profile(url)
                nocache_energy += isolated_request_energy(
                    THREE_G, 1 * KB, page.page_bytes, 0.2
                ) + (
                    isolated_request_latency(THREE_G, 1 * KB, page.page_bytes, 0.2)
                ) * 0.9
                nocache_bytes += page.page_bytes
                visits += 1
            if web.outcomes:
                hit_rates.append(web.hit_rate)
    return {
        "users": float(len(hit_rates)),
        "visits": float(visits),
        "mean_hit_rate": float(np.mean(hit_rates)) if hit_rates else 0.0,
        "energy_ratio_vs_3g": nocache_energy / max(cloudlet_energy, 1e-9),
        "radio_bytes_saved_frac": 1 - radio_bytes / max(nocache_bytes, 1),
    }


def ads_coupling(seed: int = 23, users: int = 40) -> Dict[str, float]:
    """How often local ads accompany locally served queries."""
    log = default_log(seed=seed)
    content = default_content(seed=seed)
    selected = select_replay_users(log, month=1, users_per_class=users // 4 or 1)
    served = suppressed = queries = ad_hits = 0
    image = make_cache(content, CacheMode.FULL)
    for uids in selected.values():
        for uid in uids:
            cache = image.clone()
            ads = AdsCloudlet(cache, budget_bytes=8 * MB)
            ads.load_from_content(content)
            stream = log.for_user(uid).month(1)
            for i in range(stream.n_events):
                query = stream.query_string(int(stream.query_keys[i]))
                url = stream.result_url(int(stream.result_keys[i]))
                lookup = cache.lookup(query)
                outcome = ads.serve(query, search_hit=lookup.hit)
                cache.record_click(query, url)
                queries += 1
                if lookup.hit:
                    served += 1
                    ad_hits += int(outcome.hit)
                else:
                    suppressed += 1
    return {
        "queries": float(queries),
        "search_hit_rate": served / max(queries, 1),
        "ads_served_given_hit": ad_hits / max(served, 1),
        "ads_suppressed_frac": suppressed / max(queries, 1),
    }


def pcm_boot(index_sizes_mb=(1, 8, 64, 512, 2048)) -> List[dict]:
    """Section 3.3: boot-time index availability, DRAM-only vs PCM tier.

    Without PCM the cloudlet indexes must stream from NAND into DRAM
    after every power cycle; with a PCM tier they are instantly
    available.  The gap grows linearly with index size and reaches tens
    of seconds at the gigabyte scale the paper anticipates.
    """
    rows = []
    for size_mb in index_sizes_mb:
        index_bytes = size_mb * MB
        two_tier = MemoryHierarchy().boot_index_load(index_bytes)
        three_tier = MemoryHierarchy(pcm=Pcm()).boot_index_load(index_bytes)
        rows.append(
            {
                "index_mb": size_mb,
                "dram_only_s": two_tier.latency_s,
                "with_pcm_s": three_tier.latency_s,
                "speedup": two_tier.latency_s / max(three_tier.latency_s, 1e-12),
            }
        )
    return rows


def maps_commute(
    days: int = 20,
    budget_mb: int = 128,
    seed: int = 23,
) -> Dict[str, float]:
    """A commuting user's map viewports against a prefetched corridor.

    The user pans along a home-work corridor every weekday with
    occasional random side trips; the cloudlet prefetches the corridor
    region during charging (the static-data path of Section 3.2) and
    learns side-trip tiles on miss.
    """
    import numpy as np

    from repro.pocketmaps.cloudlet import MapCloudlet
    from repro.pocketmaps.grid import Region

    rng = np.random.default_rng(seed)
    maps = MapCloudlet(budget_bytes=budget_mb * MB)
    home = (5_000.0, 5_000.0)
    work = (25_000.0, 12_000.0)
    # Overnight prefetch: a corridor around the commute plus both ends.
    corridor = Region(3_000, 3_000, 25_000, 12_000)
    prefetched = maps.prefetch_region(corridor)

    for _day in range(days):
        # The commute: viewports sampled along the home-work line.
        for step in range(8):
            frac = step / 7
            x = home[0] + (work[0] - home[0]) * frac + rng.normal(0, 400)
            y = home[1] + (work[1] - home[1]) * frac + rng.normal(0, 400)
            maps.serve_viewport(Region.viewport(x, y))
        # Occasional side trip outside the corridor.
        if rng.random() < 0.25:
            x = rng.uniform(0, 60_000)
            y = rng.uniform(0, 60_000)
            for _ in range(3):
                maps.serve_viewport(
                    Region.viewport(x + rng.normal(0, 500), y + rng.normal(0, 500))
                )
    radio_bytes = sum(o.bytes_over_radio for o in maps.outcomes)
    all_bytes = sum(o.tiles_needed for o in maps.outcomes) * 5 * KB
    return {
        "prefetched_tiles": float(prefetched),
        "viewports": float(maps.viewports_served),
        "viewport_hit_rate": maps.viewport_hit_rate,
        "tile_hit_rate": maps.tile_hit_rate,
        "radio_bytes_saved_frac": 1 - radio_bytes / max(all_bytes, 1),
        "store_mb": maps.bytes_stored / MB,
    }


def suggest_effort(seed: int = 23, users: int = 20) -> Dict[str, float]:
    """Figure 1's UX: keystrokes until the intended query tops the box.

    For every cache-hit query in a replay stream, types the query one
    character at a time and records when it first appears as the #1
    auto-suggestion.  Reports the mean fraction of keystrokes saved.
    """
    log = default_log(seed=seed)
    content = default_content(seed=seed)
    selected = select_replay_users(log, month=1, users_per_class=users // 4 or 1)
    saved_fracs: List[float] = []
    suggest_hits = 0
    lookups = 0
    from repro.pocketsearch.engine import PocketSearchEngine

    image = make_cache(content, CacheMode.FULL)
    for uids in selected.values():
        for uid in uids:
            cache = image.clone()
            engine = PocketSearchEngine(cache)
            stream = log.for_user(uid).month(1)
            for i in range(stream.n_events):
                query = stream.query_string(int(stream.query_keys[i]))
                url = stream.result_url(int(stream.result_keys[i]))
                if cache.hashtable.contains(query):
                    lookups += 1
                    found_at = None
                    for n_typed in range(1, len(query) + 1):
                        suggestions, _ = engine.suggest(query[:n_typed], k=3)
                        if suggestions and suggestions[0].query == query:
                            found_at = n_typed
                            break
                    if found_at is not None:
                        suggest_hits += 1
                        saved_fracs.append(1 - found_at / len(query))
                    else:
                        saved_fracs.append(0.0)
                cache.record_click(query, url)
    import numpy as np

    return {
        "hit_queries_tested": float(lookups),
        "topped_before_full_query": suggest_hits / max(lookups, 1),
        "mean_keystrokes_saved_frac": float(np.mean(saved_fracs))
        if saved_fracs
        else 0.0,
    }


def yellow_pages_day(
    searches: int = 60, budget_mb: int = 32, seed: int = 23
) -> Dict[str, float]:
    """A day of local-business searches against a prefetched metro area.

    Section 7 sizes the national directory at ~100 GB — far beyond a
    phone — but the user's *metro area* fits easily, and that is where
    their searches land (with occasional trips elsewhere).
    """
    import numpy as np

    from repro.pocketmaps.grid import Region
    from repro.pocketyellow.cloudlet import YellowPagesCloudlet
    from repro.pocketyellow.directory import CATEGORIES

    rng = np.random.default_rng(seed)
    yp = YellowPagesCloudlet(budget_bytes=budget_mb * MB)
    metro = Region(0, 0, 15_000, 15_000)
    prefetched = yp.prefetch_region(metro)

    for _ in range(searches):
        category = CATEGORIES[rng.integers(len(CATEGORIES))]
        if rng.random() < 0.85:
            x = rng.uniform(500, 14_000)
            y = rng.uniform(500, 14_000)
        else:  # out-of-town trip
            x = rng.uniform(30_000, 60_000)
            y = rng.uniform(30_000, 60_000)
        yp.search(category, x, y)

    latencies = [o.latency_s for o in yp.outcomes]
    return {
        "prefetched_tiles": float(prefetched),
        "searches": float(len(yp.outcomes)),
        "search_hit_rate": yp.search_hit_rate,
        "mean_latency_s": float(np.mean(latencies)),
        "store_mb": yp.bytes_stored / MB,
        "mean_results": float(
            np.mean([len(o.businesses) for o in yp.outcomes])
        ),
    }


def latency_variability(
    n_requests: int = 2000, seed: int = 23
) -> Dict[str, dict]:
    """The paper's unpredictability claim as latency distributions.

    Section 1: a 3G search takes "3 to 10 seconds depending on location,
    device and operator", doubling or tripling on weak signal — while a
    cache hit is deterministic.  Samples per-request link conditions and
    reports percentiles per path.
    """
    import numpy as np

    from repro.radio.conditions import ConditionSampler
    from repro.radio.models import EDGE, THREE_G
    from repro.sim.browser import RADIO_SERP_BYTES, RenderModel, SERP_BYTES

    render_s = RenderModel().render_seconds(SERP_BYTES)
    ps_latency = render_s + 0.0066 + 0.007 + 10e-6

    out: Dict[str, dict] = {
        "pocketsearch": {
            "p10": ps_latency,
            "p50": ps_latency,
            "p90": ps_latency,
            "p99": ps_latency,
            "spread": 0.0,
        }
    }
    for profile in (THREE_G, EDGE):
        sampler = ConditionSampler(seed=seed)
        latencies = []
        for _ in range(n_requests):
            degraded = sampler.sample().apply(profile)
            latencies.append(
                isolated_request_latency(degraded, 1 * KB, RADIO_SERP_BYTES, 0.35)
                + render_s
            )
        values = np.asarray(latencies)
        out[profile.name] = {
            "p10": float(np.percentile(values, 10)),
            "p50": float(np.percentile(values, 50)),
            "p90": float(np.percentile(values, 90)),
            "p99": float(np.percentile(values, 99)),
            "spread": float(np.percentile(values, 99) - np.percentile(values, 10)),
        }
    return out


def server_load_relief(seed: int = 23) -> Dict[str, float]:
    """Section 7: PocketSearch removes ~2/3 of the query load from the
    search engine, easing peak-time load balancing.

    Replays the whole population's month through per-user caches and
    compares the hourly query rate reaching the server with and without
    PocketSearch, using the log's diurnal traffic profile.
    """
    import numpy as np

    from repro.logs.schema import MONTH_SECONDS

    log = default_log(seed=seed)
    month = log.month(1)
    content = default_content(seed=seed)

    hours_total = np.zeros(24)
    hours_misses = np.zeros(24)
    users = np.unique(month.user_ids)
    rng = np.random.default_rng(seed)
    sampled = rng.choice(users, size=min(400, len(users)), replace=False)
    image = make_cache(content, CacheMode.FULL)
    for uid in sampled:
        stream = month.for_user(int(uid))
        cache = image.clone()
        for i in range(stream.n_events):
            t = float(stream.timestamps[i]) - MONTH_SECONDS
            hour = int(t // 3600) % 24
            query = stream.query_string(int(stream.query_keys[i]))
            url = stream.result_url(int(stream.result_keys[i]))
            hours_total[hour] += 1
            if not cache.lookup(query).hit:
                hours_misses[hour] += 1
            cache.record_click(query, url)
    return {
        "queries": float(hours_total.sum()),
        "server_queries": float(hours_misses.sum()),
        "load_eliminated_frac": 1 - hours_misses.sum() / max(hours_total.sum(), 1),
        "peak_hour_before": float(hours_total.max()),
        "peak_hour_after": float(hours_misses.max()),
        "peak_reduction_frac": 1 - hours_misses.max() / max(hours_total.max(), 1),
        "peak_hour": int(hours_total.argmax()),
    }


def battery_life(queries_per_day: float = 40.0, seed: int = 23) -> Dict[str, dict]:
    """The Figure 15(b) energies expressed as battery-life impact."""
    from repro.experiments.performance import figure15

    f15 = figure15(seed=seed)
    battery = Battery()
    out = {}
    for path, data in f15.items():
        energy = data["mean_energy_j"]
        out[path] = {
            "energy_per_query_j": energy,
            "queries_per_charge": battery.queries_per_charge(energy),
            "daily_share_pct": battery.daily_budget_share(energy, queries_per_day)
            * 100,
        }
    return out
