"""The run identity the front-door tests compare across runs and processes."""


def frontdoor_fingerprint(frontdoor) -> tuple:
    """The net counters, the final instant and the schedule digest of
    *frontdoor*'s fleet: equal for two runs that served the same schedule."""
    stats = frontdoor.fleet.stats
    return (
        stats.net_requests,
        stats.net_completed,
        stats.net_failed,
        stats.net_retries,
        stats.shed_total,
        stats.expired,
        frontdoor.fleet.clock.now,
        stats.schedule_digest(),
    )
