"""VER105 vectors: bare except in recovery paths."""


def swallow(driver):
    try:
        driver.kick(1)
    except:  # line 7: VER105
        pass


def named_ok(driver):
    try:
        driver.kick(1)
    except RuntimeError:
        pass


def suppressed(driver):
    try:
        driver.kick(1)
    except:  # verify: ignore[VER105]
        raise


def swallow_all(driver):
    try:
        driver.kick(1)
    except Exception:  # line 28: VER105 (never raises)
        return None


def catch_all_and_reraise(driver):
    try:
        driver.kick(1)
    except (ValueError, BaseException):
        driver.reset()
        raise
