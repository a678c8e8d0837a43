"""One-dimensional numerics on Python floats: quadrature and a bounded minimiser.

qagse is QUADPACK's dqagse (R. Piessens, E. de Doncker-Kapenga,
C. Ueberhuber & D. Kahaner, QUADPACK, Springer 1983): the 21-point
Gauss-Kronrod rule dqk21 on each interval, bisection of the interval with
the largest error estimate, kept in an error-ordered list as dqpsrt keeps
it, and Wynn's epsilon algorithm (dqelg) over the bisection's partial
sums.  Every comparison, sum and product is QUADPACK's, in QUADPACK's
order, so the result is the one scipy.integrate.quad returns for the same
integrand and settings, to the last bit; only the estimate and not the
flag ier comes back.  minimize_bounded is Brent's bounded minimiser as
scipy.optimize.minimize_scalar(method="bounded") runs it, the same way.

The 21-point rule is written out node by node, as ode.py writes out its
tableau rows: one function built by codegen.emit when this module loads, its
weights and abscissae repr literals, its sums added in dqk21's order.
"""

from __future__ import annotations

import math

from .codegen import emit

_EPMACH = 2.220446049250313e-16  # d1mach(4)
_UFLOW = 2.2250738585072014e-308  # d1mach(1)
_OFLOW = 1.7976931348623157e308  # d1mach(2)
_LIMEXP = 50  # dqelg's longest epsilon table

# dqk21's Kronrod abscissae, outermost first, and their weights; xgk[1],
# xgk[3], ..., xgk[9] are the 10-point Gauss rule's abscissae, weighted wg.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _build_qk21():
    """dqk21 as straight-line code: f(centr), the Gauss pairs, then the Kronrod-only pairs."""
    gauss, kronrod = range(1, 10, 2), range(0, 10, 2)
    lines = [
        "centr = 0.5 * (a + b)",
        "hlgth = 0.5 * (b - a)",
        "fc = f(centr)",
    ]
    for i in (*gauss, *kronrod):
        lines += [
            f"absc = hlgth * {_XGK[i]!r}",
            f"fv1_{i} = f(centr - absc)",
            f"fv2_{i} = f(centr + absc)",
            f"fsum_{i} = fv1_{i} + fv2_{i}",
        ]
    w = [repr(v) for v in _WGK]
    resg = " + ".join(f"{wg!r} * fsum_{i}" for wg, i in zip(_WG, gauss))
    resk = "".join(f" + {w[i]} * fsum_{i}" for i in (*gauss, *kronrod))
    resabs = "".join(f" + {w[i]} * (abs(fv1_{i}) + abs(fv2_{i}))" for i in (*gauss, *kronrod))
    resasc = "".join(f" + {w[i]} * (abs(fv1_{i} - reskh) + abs(fv2_{i} - reskh))" for i in range(10))
    lines += [
        f"resg = {resg}",
        f"resk = {w[10]} * fc{resk}",
        f"resabs = abs({w[10]} * fc){resabs}",
        "reskh = resk * 0.5",
        f"resasc = {w[10]} * abs(fc - reskh){resasc}",
        "dhlgth = abs(hlgth)",
        "resabs = resabs * dhlgth",
        "resasc = resasc * dhlgth",
        "abserr = abs((resk - resg) * hlgth)",
        "if resasc != 0.0 and abserr != 0.0:",
        "    abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)",
        f"if resabs > {_UFLOW / (50.0 * _EPMACH)!r}:",
        f"    abserr = max({_EPMACH * 50.0!r} * resabs, abserr)",
        "return resk * hlgth, abserr, resabs, resasc",
    ]
    doc = '"""(result, abserr, resabs, resasc): the integral of f, its error, and those of |f| and |f - mean|."""'
    return emit("qk21(f, a, b)", [doc, *lines], {}, "qk21")


_qk21 = _build_qk21()


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord error-ordered after a bisection; (maxerr, errmax, nrmax) to bisect next.

    elist and iord are indexed from 1, as in QUADPACK.
    """
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # a subdivision that raised the error estimate moves maxerr up the list
        while nrmax > 1:
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only the jupbn intervals that can still be bisected are kept in order
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        i = nrmax + 1
        while i <= jbnd:
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
            i += 1
        if i > jbnd:
            iord[jbnd] = maxerr
            iord[jupbn] = last
        else:
            # insert errmax at i - 1, then errmin bottom-up
            iord[i - 1] = maxerr
            k = jbnd
            while k >= i:
                isucc = iord[k]
                if errmin < elist[isucc]:
                    break
                iord[k + 1] = isucc
                k -= 1
            iord[k + 1] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: Wynn's epsilon algorithm on epstab[1..n]; (n, nres, result, abserr).

    epstab (53 entries) and res3la (4 entries) are indexed from 1, as in
    QUADPACK, and are updated in place.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged
                return n, nres, res, max(err2 + err3, 5.0 * _EPMACH * abs(res))
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                # irregular behaviour: cut the table
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr = error
                result = res
        # shift the table
        if n == _LIMEXP:
            n = 2 * (_LIMEXP // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres >= 4:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1] = res3la[2]
            res3la[2] = res3la[3]
            res3la[3] = result
        else:
            res3la[nres] = result
            abserr = _OFLOW
    return n, nres, result, max(abserr, 5.0 * _EPMACH * abs(result))


def qagse(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """(estimate, abserr) of the integral of f over [a, b], by QUADPACK's dqagse.

    f takes and returns a Python float; limit >= 1, and epsabs > 0 or
    epsrel >= 50 machine epsilons, as dqagse requires.  The estimate is
    dqagse's result whatever its flag ier would say: a limit spent,
    roundoff detected or a divergent-looking integrand still return the
    best estimate, as quad returns it with a warning.  Exceptions f raises
    propagate.
    """
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if (
        (abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd)
        or limit == 1
        or (abserr <= errbnd and abserr != resabs)
        or abserr == 0.0
    ):
        return result, abserr

    # QUADPACK's lists, indexed from 1: interval ends, integrals, errors, error order
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1], blist[1], rlist[1], elist[1], iord[1] = a, b, result, abserr, 1
    rlist2 = [0.0] * (_LIMEXP + 3)  # the epsilon table
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ier = ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0

    for last in range(2, limit + 1):
        # bisect the interval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2  # roundoff
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4  # an interval too small to bisect
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            return _qagse_sum(rlist, last), errsum
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # bisect the larger intervals first, while they hold errors above ertest
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, nres, reseps, abseps = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # bisect the smallest interval next
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # the extrapolated result, unless the plain sum is the better estimate
    if abserr == _OFLOW:
        return _qagse_sum(rlist, last), errsum
    if ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) > errsum / abs(area):
                return _qagse_sum(rlist, last), errsum
        elif abserr > errsum:
            return _qagse_sum(rlist, last), errsum
    return result, abserr


def _qagse_sum(rlist, last):
    """The integrals over the intervals 1..last, added left to right from 0.0."""
    total = 0.0
    for k in range(1, last + 1):
        total = total + rlist[k]
    return total


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _sign_or_one(v: float) -> float:
    """-1.0 for negative v, else 1.0: numpy's sign(v) + (v == 0) off NaN."""
    return -1.0 if v < 0.0 else 1.0


def minimize_bounded(func, lo: float, hi: float, xatol: float, maxiter: int = 500):
    """(x, func(x)) at a local minimum of func on [lo, hi], by Brent's bounded method.

    Golden-section steps, and parabolic steps through the three best points
    when the parabola's vertex falls well inside; it stops once the
    bracket around the best point x is within 2 (sqrt(2.2e-16) |x| +
    xatol / 3), or after maxiter calls of func, a float function.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # try a parabola through xf, nfc and fulc
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign_or_one(xm - xf)
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        x = xf + _sign_or_one(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf, fx
