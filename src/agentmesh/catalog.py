"""The scripted task world: query types, protocol texts, and mock tools.

Every simulated query belongs to one of the task types below. An entry
bundles everything both sides of a conversation need to stay consistent
without a real model: payload pools, the canonical protocol text the
scripted negotiator converges on, natural-language question/answer
templates, the tool step templates shared by scripted model handling and
synthesized routines, and deterministic mock tool implementations.

Each template is the one statement of its language format: the parser is
the template compiled into a regex, with its schema fields read back by
their types. A field's value must not contain the literal text that
follows its placeholder in the template, or the parse splits it there.

Mock tool results are pure functions of their arguments (values derived by
hashing the argument tuple), so a run's outputs are identical across modes
and repetitions. A handful of fixture inputs return pinned values; each
protocol's worked example is one of them, which is what makes routine
validation against the example meaningful.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import string
from dataclasses import dataclass
from typing import Callable

from .documents import ProtocolMetadata, render_document
from .routines import RECEIVER, SENDER, Routine, RoutineStep, compile_template

# ── deterministic value derivation ───────────────────────────────────

def _det_int(key: str, lo: int, hi: int) -> int:
    digest = hashlib.sha1(key.encode("utf-8")).digest()
    return lo + int.from_bytes(digest[:8], "big") % (hi - lo + 1)


def _det_pick(key: str, pool):
    return pool[_det_int(key, 0, len(pool) - 1)]


def fmt_value(value) -> str:
    """Render a payload/result value for natural-language templates."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, "g")
    if isinstance(value, list):
        return ", ".join(fmt_value(v) for v in value)
    return str(value)


# ── value pools ──────────────────────────────────────────────────────

CITIES = ["London, UK", "New York", "Paris", "Berlin", "Tokyo", "Sydney", "Toronto", "Madrid"]
DATES = ["2024-09-27", "2024-10-14", "2024-11-02", "2024-12-05",
         "2025-01-20", "2025-02-08", "2025-03-14", "2025-04-22"]
TIMES = ["09:00", "11:30", "14:30", "18:45", "19:00", "20:15"]
ADDRESSES = ["12 Market Street", "87 Rose Lane", "5 Harbor View", "221 Birch Road", "9 Castle Walk"]
MENU = ["margherita pizza", "pad thai", "sushi set", "caesar salad", "lamb burger", "mushroom risotto"]
MOVIES = ["Starfall", "The Long Orbit", "Paper Lanterns", "Midnight Tram"]
AREAS = ["downtown", "riverside", "old town", "airport corridor"]
AIRPORTS = ["LHR", "JFK", "CDG", "HND", "SYD"]
CAR_MODELS = ["compact hatchback", "midsize sedan", "electric crossover", "minivan"]
HOTELS = ["Grand Meridian", "Harbor Lights Inn", "The Juniper", "Station Plaza Hotel"]
DRIVERS = ["D-103", "D-204", "D-377", "D-518"]
COURIERS = ["C-11", "C-42", "C-73"]
RESTAURANTS = ["Fork & Flame", "The Brass Kettle", "Olive & Thyme"]
CONDITIONS = ["sunny", "cloudy", "rainy", "snowy"]
CONGESTION = ["light", "moderate", "heavy"]
PLACES = ["King's Cross Station", "Heathrow Airport", "Museum Quarter", "Opera House", "Tech Park"]

RESTAURANT_KITCHEN = "12 Market Street"


# ── mock tools ───────────────────────────────────────────────────────
#
# Fixture tables pin the worked-example inputs (and the two-agent demo's
# London query) so routine validation and golden replies are exact.

_WEATHER_FIXTURES = {
    ("New York", "2023-10-01"): {"temperature": 22.5, "precipitation": 5.0, "weatherCondition": "cloudy"},
    ("London, UK", "2024-09-27"): {"temperature": 11, "precipitation": 12, "weatherCondition": "rainy"},
}


def weather_db(args: dict) -> dict:
    location, date = args.get("location"), args.get("date")
    if not location or not date:
        return {"error": "location and date are required"}
    if location == "Atlantis":
        return {"error": f"unknown location: {location}"}
    if (location, date) in _WEATHER_FIXTURES:
        return dict(_WEATHER_FIXTURES[(location, date)])
    key = f"weather|{location}|{date}"
    return {
        "temperature": _det_int(key + "|t", -10, 70) / 2,
        "precipitation": _det_int(key + "|p", 0, 40),
        "weatherCondition": _det_pick(key + "|c", CONDITIONS),
    }


def taxi_dispatch(args: dict) -> dict:
    key = f"taxi|{args.get('pickup')}|{args.get('dropoff')}|{args.get('time')}"
    if (args.get("pickup"), args.get("dropoff"), args.get("time")) == \
            ("King's Cross Station", "Heathrow Airport", "14:30"):
        return {"fare": 58.5, "eta_minutes": 9, "driver": "D-204"}
    return {
        "fare": _det_int(key + "|f", 12, 160) / 2,
        "eta_minutes": _det_int(key + "|e", 3, 25),
        "driver": _det_pick(key + "|d", DRIVERS),
    }


def hotel_db(args: dict) -> dict:
    key = f"hotel|{args.get('city')}|{args.get('check_in')}|{args.get('nights')}|{args.get('guests')}"
    if (args.get("city"), args.get("check_in")) == ("Paris", "2025-03-14"):
        return {"hotel": "Grand Meridian", "price_per_night": 140.0, "available": True}
    return {
        "hotel": _det_pick(key + "|h", HOTELS),
        "price_per_night": float(_det_int(key + "|p", 60, 320)),
        "available": _det_int(key + "|a", 0, 9) > 1,
    }


_MENU_PRICES = {"margherita pizza": 12.0, "pad thai": 11.5, "sushi set": 18.0,
                "caesar salad": 9.0, "lamb burger": 14.5, "mushroom risotto": 13.0}


def menu_db(args: dict) -> dict:
    items = args.get("items") or []
    key = f"menu|{'|'.join(items)}"
    total = round(sum(_MENU_PRICES.get(item, 10.0) for item in items), 2)
    return {"order_id": f"ORD-{_det_int(key, 1000, 9999)}", "total": total}


def box_office(args: dict) -> dict:
    key = f"movie|{args.get('movie')}|{args.get('city')}|{args.get('date')}|{args.get('seats')}"
    seats = args.get("seats") or 1
    if (args.get("movie"), args.get("city")) == ("Starfall", "Berlin"):
        return {"confirmation": "MT-7301", "price_total": 12.0 * seats}
    return {
        "confirmation": f"MT-{_det_int(key, 1000, 9999)}",
        "price_total": _det_int(key + "|p", 8, 22) * float(seats),
    }


def traffic_db(args: dict) -> dict:
    area = args.get("area")
    if area == "87 Rose Lane":
        return {"congestion_level": "light", "average_speed_kmh": 44, "incident_count": 0}
    if area == "downtown":
        return {"congestion_level": "moderate", "average_speed_kmh": 32, "incident_count": 2}
    key = f"traffic|{area}"
    return {
        "congestion_level": _det_pick(key + "|c", CONGESTION),
        "average_speed_kmh": _det_int(key + "|s", 12, 70),
        "incident_count": _det_int(key + "|i", 0, 5),
    }


def courier_pool(args: dict) -> dict:
    key = f"courier|{args.get('pickup_address')}|{args.get('dropoff_address')}|{args.get('congestion')}"
    if (args.get("pickup_address"), args.get("dropoff_address"), args.get("congestion")) == \
            ("12 Market Street", "87 Rose Lane", "light"):
        return {"courier": "C-42", "pickup_eta_minutes": 12}
    base = {"light": 8, "moderate": 15, "heavy": 25}.get(args.get("congestion"), 15)
    return {
        "courier": _det_pick(key + "|c", COURIERS),
        "pickup_eta_minutes": base + _det_int(key + "|e", 0, 10),
    }


def flight_db(args: dict) -> dict:
    key = f"flight|{args.get('origin')}|{args.get('destination')}|{args.get('date')}"
    if (args.get("origin"), args.get("destination")) == ("LHR", "JFK"):
        return {"flight_number": "AM204", "departure_time": "10:35", "price": 421.0}
    return {
        "flight_number": f"AM{_det_int(key, 100, 999)}",
        "departure_time": _det_pick(key + "|t", TIMES),
        "price": float(_det_int(key + "|p", 90, 900)),
    }


def rental_db(args: dict) -> dict:
    key = f"rental|{args.get('city')}|{args.get('start_date')}|{args.get('days')}"
    if (args.get("city"), args.get("start_date")) == ("Madrid", "2025-02-08"):
        return {"model": "midsize sedan", "price_per_day": 45.0, "confirmation": "CR-5520"}
    return {
        "model": _det_pick(key + "|m", CAR_MODELS),
        "price_per_day": float(_det_int(key + "|p", 25, 120)),
        "confirmation": f"CR-{_det_int(key, 1000, 9999)}",
    }


def table_db(args: dict) -> dict:
    key = f"table|{args.get('city')}|{args.get('date')}|{args.get('time')}|{args.get('party_size')}"
    if (args.get("city"), args.get("date")) == ("Tokyo", "2024-12-05"):
        return {"restaurant": "Olive & Thyme", "table": "T-8", "confirmed": True}
    return {
        "restaurant": _det_pick(key + "|r", RESTAURANTS),
        "table": f"T-{_det_int(key + '|t', 1, 20)}",
        "confirmed": _det_int(key + "|c", 0, 9) > 0,
    }


MOCK_TOOLS: dict[str, Callable[[dict], dict]] = {
    "weather_db": weather_db,
    "taxi_dispatch": taxi_dispatch,
    "hotel_db": hotel_db,
    "menu_db": menu_db,
    "box_office": box_office,
    "traffic_db": traffic_db,
    "courier_pool": courier_pool,
    "flight_db": flight_db,
    "rental_db": rental_db,
    "table_db": table_db,
}


# ── natural-language templates ───────────────────────────────────────

_CAP = "_cap"   # `{field_cap}` writes the value capitalised; parsing lower-cases it


def _number(text: str):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text}")
    return int(value) if value.is_integer() else value


# Schema type -> (pattern of the text fmt_value writes, conversion back).
_FROM_TEXT: dict[str, tuple[str, Callable[[str], object]]] = {
    "string": (r".+?", str),
    "number": (r"-?\d+(?:\.\d+)?(?:e[+-]\d+)?", _number),
    "integer": (r"-?\d+", int),
    "boolean": (r"yes|no", lambda text: text == "yes"),
    "array": (r".+?", lambda text: text.split(", ")),
}


class _Template:
    """A template and its inverse: an anchored regex with a named group for
    each schema field, read back by the field's type in schema order, and a
    gap that matches any text for every other placeholder."""

    def __init__(self, template: str, schema: dict):
        types = {name: prop["type"] for name, prop in schema["properties"].items()}
        pattern: list[str] = []
        reads: dict[str, tuple] = {}
        self.capitalised: list[str] = []
        for literal, name, _, _ in string.Formatter().parse(template):
            pattern.append(re.escape(literal))
            if name is None:
                continue
            field = name.removesuffix(_CAP)
            if field != name:
                self.capitalised.append(field)
            if field in types:
                regex, convert = _FROM_TEXT[types[field]]
                pattern.append(f"(?P<{field}>{regex})")
                reads[field] = (convert, field != name)
            else:
                pattern.append(".+?")
        self.template = template
        self.regex = re.compile("".join(pattern), re.DOTALL)
        self.reads = [(field, *reads[field]) for field in types if field in reads]

    def format(self, values: dict) -> str:
        text = {key: fmt_value(value) for key, value in values.items()}
        for field in self.capitalised:
            text[field + _CAP] = text[field].capitalize()
        return self.template.format(**text)

    def parse(self, text: str) -> dict | None:
        match = self.regex.fullmatch(text.strip())
        if match is None:
            return None
        try:
            return {field: convert(match[field].lower() if lowered else match[field])
                    for field, convert, lowered in self.reads}
        except ValueError:
            return None


# ── task type definitions ────────────────────────────────────────────

@dataclass(frozen=True)
class TaskType:
    name: str
    title: str                      # protocol metadata name
    purpose: str                    # protocol metadata description
    keywords: tuple[str, ...]       # classification keywords
    task_description: str           # what the requester says it wants
    input_schema: dict
    output_schema: dict
    example_input: dict
    example_output: dict
    question_template: str          # over the input fields
    answer_template: str            # over the input and output fields
    make_payload: Callable[..., dict]
    tool: str = ""                  # a one-step task's tool
    steps: tuple[dict, ...] = ()    # tool step templates ($-references)
    output_template: dict | None = None
    server_tools: tuple[dict, ...] = ()   # extra descriptors (external deps)

    def __post_init__(self):
        if self.tool:   # one step: the input's fields in, the result's fields out
            object.__setattr__(self, "steps", ({
                "tool": self.tool, "args": _fields_of("input", self.input_schema), "bind": "result"},))
            object.__setattr__(self, "output_template", _fields_of("result", self.output_schema))
        # Each template is compiled once, when the catalog is built; ``plan``
        # holds each step as (tool, args resolver, bind).
        object.__setattr__(self, "_question", _Template(self.question_template, self.input_schema))
        object.__setattr__(self, "_answer", _Template(self.answer_template, self.output_schema))
        object.__setattr__(self, "plan", tuple(
            (step["tool"], compile_template(step["args"]), step["bind"]) for step in self.steps))
        object.__setattr__(self, "resolve_output", compile_template(self.output_template))

    def parse_question(self, text: str) -> dict | None:
        """The payload a question in this task's template asks about, or None."""
        return self._question.parse(text)

    def parse_answer(self, text: str) -> dict | None:
        """The result an answer in this task's template reports, or None."""
        return self._answer.parse(text)


# Weather's protocol text is written out; pd_text generates the others'.

WEATHER_PD_TEXT = """Name: Weather Forecast Query Protocol
Description: A protocol for querying the weather forecast for a given date and location.

Input Message

The input message is a JSON object with the following structure:

  {
    "date": "YYYY-MM-DD",
    "location": "string"
  }

- date: A string representing the date for which the weather forecast is requested, in the format YYYY-MM-DD.
- location: A string representing the location for which the weather forecast is requested.

Output Message

The output message is a JSON object with the following structure:

  {
    "temperature": number,
    "precipitation": number,
    "weatherCondition": "string"
  }

- temperature: A number representing the predicted temperature for that day in degrees Celsius.
- precipitation: A number representing the predicted precipitation for that day in millimetres.
- weatherCondition: A string representing the predicted weather condition for that day. Possible values are "sunny", "cloudy", "rainy" and "snowy".

Example

Input:

  {
    "date": "2023-10-01",
    "location": "New York"
  }

Output:

  {
    "temperature": 22.5,
    "precipitation": 5.0,
    "weatherCondition": "cloudy"
  }
"""


def _fields_of(binding: str, schema: dict) -> dict:
    """A template taking each field of *schema* from the same field of *binding*."""
    return {name: f"${binding}.{name}" for name in schema["properties"]}


def _schema(**props) -> dict:
    return {
        "type": "object",
        "required": list(props),
        "properties": {k: {"type": t, "doc": d} for k, (t, d) in props.items()},
    }


CATALOG: dict[str, TaskType] = {}


def _register(task: TaskType) -> None:
    CATALOG[task.name] = task


_register(TaskType(
    name="delivery",
    title="Courier Dispatch Protocol",
    purpose="A protocol for courier dispatch between a pickup address and a dropoff address.",
    keywords=("courier",),
    task_description="arrange courier dispatch between a pickup address and a dropoff address",
    input_schema=_schema(
        pickup_address=("string", "Street address where the courier collects the package."),
        dropoff_address=("string", "Street address where the package is delivered."),
        order_ref=("string", "Reference code of the order being delivered."),
    ),
    output_schema=_schema(
        courier=("string", "Identifier of the assigned courier."),
        pickup_eta_minutes=("integer", "Minutes until the courier reaches the pickup address."),
        delivery_status=("string", "Dispatch status of the delivery."),
    ),
    example_input={"pickup_address": "12 Market Street", "dropoff_address": "87 Rose Lane",
                   "order_ref": "ORD-1001"},
    example_output={"courier": "C-42", "pickup_eta_minutes": 12, "delivery_status": "dispatched"},
    question_template="Please dispatch a courier from {pickup_address} to {dropoff_address} for order {order_ref}.",
    answer_template="Courier {courier} assigned to order {order_ref}: pickup in {pickup_eta_minutes} minutes, status {delivery_status}.",
    make_payload=lambda rng: {
        "pickup_address": rng.choice(ADDRESSES),
        "dropoff_address": rng.choice(ADDRESSES),
        "order_ref": f"ORD-{rng.randint(1000, 9999)}",
    },
    steps=(
        {"tool": "traffic_check", "args": {"area": "$input.dropoff_address"}, "bind": "tr"},
        {"tool": "courier_pool", "args": {"pickup_address": "$input.pickup_address",
                                          "dropoff_address": "$input.dropoff_address",
                                          "congestion": "$tr.congestion_level"}, "bind": "cp"},
    ),
    output_template={"courier": "$cp.courier", "pickup_eta_minutes": "$cp.pickup_eta_minutes",
                     "delivery_status": "dispatched"},
    server_tools=({"name": "traffic_check", "kind": "external", "task_type": "traffic",
                   "description": "Query the traffic data service for congestion in an area."},),
))

_register(TaskType(
    name="food_order",
    title="Food Order Protocol",
    purpose="A protocol for placing a food order from a restaurant menu for delivery.",
    keywords=("order", "food"),
    task_description="place a food order from a restaurant menu for delivery",
    input_schema=_schema(
        items=("array", "Menu items to order."),
        address=("string", "Delivery address."),
    ),
    output_schema=_schema(
        order_id=("string", "Identifier of the accepted order."),
        total=("number", "Total price of the order in USD."),
        delivery_eta_minutes=("integer", "Minutes until courier pickup."),
        delivery_status=("string", "Status reported by the courier service."),
    ),
    example_input={"items": ["margherita pizza", "caesar salad"], "address": "87 Rose Lane"},
    example_output={"order_id": "ORD-3976", "total": 21.0, "delivery_eta_minutes": 12,
                    "delivery_status": "dispatched"},
    question_template="Please order the following items for delivery to {address}: {items}.",
    answer_template="Order {order_id} confirmed: total {total} USD, courier status {delivery_status}, estimated pickup in {delivery_eta_minutes} minutes.",
    make_payload=lambda rng: {
        "items": rng.sample(MENU, rng.randint(1, 3)),
        "address": rng.choice(ADDRESSES),
    },
    steps=(
        {"tool": "menu_db", "args": {"items": "$input.items"}, "bind": "mq"},
        {"tool": "delivery_request", "args": {"pickup_address": RESTAURANT_KITCHEN,
                                              "dropoff_address": "$input.address",
                                              "order_ref": "$mq.order_id"}, "bind": "dlv"},
    ),
    output_template={"order_id": "$mq.order_id", "total": "$mq.total",
                     "delivery_eta_minutes": "$dlv.pickup_eta_minutes",
                     "delivery_status": "$dlv.delivery_status"},
    server_tools=({"name": "delivery_request", "kind": "external", "task_type": "delivery",
                   "description": "Ask the courier service to deliver an accepted order."},),
))

_register(TaskType(
    name="weather",
    title="Weather Forecast Query Protocol",
    purpose="A protocol for querying the weather forecast for a given date and location.",
    keywords=("weather", "forecast"),
    task_description="query the weather forecast for a given date and location",
    input_schema=_schema(
        date=("string", "Date of the forecast, formatted YYYY-MM-DD."),
        location=("string", "Location of the forecast."),
    ),
    output_schema=_schema(
        temperature=("number", "Predicted temperature in degrees Celsius."),
        precipitation=("number", "Predicted precipitation in millimetres."),
        weatherCondition=("string", 'One of "sunny", "cloudy", "rainy", "snowy".'),
    ),
    example_input={"date": "2023-10-01", "location": "New York"},
    example_output={"temperature": 22.5, "precipitation": 5.0, "weatherCondition": "cloudy"},
    question_template="What is the weather forecast for {location} on {date}?",
    answer_template='The weather forecast for {location}, on {date} is as follows: "{weatherCondition_cap}, {temperature} degrees Celsius, with a precipitation of {precipitation} mm."',
    make_payload=lambda rng: {"location": rng.choice(CITIES), "date": rng.choice(DATES)},
    tool="weather_db",
))

_register(TaskType(
    name="taxi",
    title="Taxi Booking Protocol",
    purpose="A protocol for booking a taxi ride with a pickup, a dropoff and a departure time.",
    keywords=("taxi",),
    task_description="book a taxi ride with a pickup, a dropoff and a departure time",
    input_schema=_schema(
        pickup=("string", "Pickup point."),
        dropoff=("string", "Destination point."),
        time=("string", "Requested departure time, formatted HH:MM."),
    ),
    output_schema=_schema(
        fare=("number", "Estimated fare in USD."),
        eta_minutes=("integer", "Minutes until the taxi arrives at the pickup point."),
        driver=("string", "Identifier of the assigned driver."),
    ),
    example_input={"pickup": "King's Cross Station", "dropoff": "Heathrow Airport", "time": "14:30"},
    example_output={"fare": 58.5, "eta_minutes": 9, "driver": "D-204"},
    question_template="Please send a taxi from {pickup} to {dropoff} at {time}.",
    answer_template="A taxi is booked from {pickup} to {dropoff} at {time}: driver {driver}, fare {fare} USD, arriving in {eta_minutes} minutes.",
    make_payload=lambda rng: {
        "pickup": rng.choice(PLACES),
        "dropoff": rng.choice(PLACES),
        "time": rng.choice(TIMES),
    },
    tool="taxi_dispatch",
))

_register(TaskType(
    name="hotel",
    title="Hotel Room Booking Protocol",
    purpose="A protocol for booking a hotel room for a number of nights and guests.",
    keywords=("hotel",),
    task_description="book a hotel room for a number of nights and guests",
    input_schema=_schema(
        city=("string", "Destination city."),
        check_in=("string", "Check-in date, formatted YYYY-MM-DD."),
        nights=("integer", "Number of nights."),
        guests=("integer", "Number of guests."),
    ),
    output_schema=_schema(
        hotel=("string", "Name of the booked hotel."),
        price_per_night=("number", "Room price per night in USD."),
        available=("boolean", "Whether a room is available for the requested dates."),
    ),
    example_input={"city": "Paris", "check_in": "2025-03-14", "nights": 3, "guests": 2},
    example_output={"hotel": "Grand Meridian", "price_per_night": 140.0, "available": True},
    question_template="Please book a hotel room in {city} checking in {check_in} for {nights} nights for {guests} guests.",
    answer_template="Booked {hotel} in {city}: {price_per_night} USD per night, available: {available}.",
    make_payload=lambda rng: {
        "city": rng.choice(CITIES),
        "check_in": rng.choice(DATES),
        "nights": rng.randint(1, 7),
        "guests": rng.randint(1, 4),
    },
    tool="hotel_db",
))

_register(TaskType(
    name="movie_tickets",
    title="Movie Ticket Purchase Protocol",
    purpose="A protocol for buying cinema tickets for a screening.",
    keywords=("tickets", "movie"),
    task_description="buy cinema tickets for a screening",
    input_schema=_schema(
        movie=("string", "Title of the movie."),
        city=("string", "Screening city."),
        date=("string", "Screening date, formatted YYYY-MM-DD."),
        seats=("integer", "Number of seats."),
    ),
    output_schema=_schema(
        confirmation=("string", "Booking confirmation code."),
        price_total=("number", "Total ticket price in USD."),
    ),
    example_input={"movie": "Starfall", "city": "Berlin", "date": "2024-11-02", "seats": 2},
    example_output={"confirmation": "MT-7301", "price_total": 24.0},
    question_template="Please buy {seats} tickets for {movie} in {city} on {date}.",
    answer_template="Tickets confirmed ({confirmation}): {seats} seats for {movie}, total {price_total} USD.",
    make_payload=lambda rng: {
        "movie": rng.choice(MOVIES),
        "city": rng.choice(CITIES),
        "date": rng.choice(DATES),
        "seats": rng.randint(1, 5),
    },
    tool="box_office",
))

_register(TaskType(
    name="traffic",
    title="Traffic Conditions Query Protocol",
    purpose="A protocol for querying live traffic congestion in an area.",
    keywords=("traffic",),
    task_description="query live traffic congestion in an area",
    input_schema=_schema(
        area=("string", "Area to report traffic for."),
    ),
    output_schema=_schema(
        congestion_level=("string", 'One of "light", "moderate", "heavy".'),
        average_speed_kmh=("integer", "Average traffic speed in km/h."),
        incident_count=("integer", "Number of reported incidents."),
    ),
    example_input={"area": "downtown"},
    example_output={"congestion_level": "moderate", "average_speed_kmh": 32, "incident_count": 2},
    question_template="What is the current traffic situation in {area}?",
    answer_template="Traffic in {area}: {congestion_level} congestion, average speed {average_speed_kmh} km/h, {incident_count} incidents reported.",
    make_payload=lambda rng: {"area": rng.choice(AREAS)},
    tool="traffic_db",
))

_register(TaskType(
    name="flight",
    title="Flight Search Protocol",
    purpose="A protocol for finding a flight between two airports.",
    keywords=("flight",),
    task_description="find a flight between two airports",
    input_schema=_schema(
        origin=("string", "Origin airport code."),
        destination=("string", "Destination airport code."),
        date=("string", "Departure date, formatted YYYY-MM-DD."),
    ),
    output_schema=_schema(
        flight_number=("string", "Flight number of the best match."),
        departure_time=("string", "Departure time, formatted HH:MM."),
        price=("number", "Ticket price in USD."),
    ),
    example_input={"origin": "LHR", "destination": "JFK", "date": "2025-01-20"},
    example_output={"flight_number": "AM204", "departure_time": "10:35", "price": 421.0},
    question_template="Please find a flight from {origin} to {destination} on {date}.",
    answer_template="Flight {flight_number} from {origin} to {destination} departs at {departure_time}, price {price} USD.",
    make_payload=lambda rng: {
        "origin": rng.choice(AIRPORTS),
        "destination": rng.choice(AIRPORTS),
        "date": rng.choice(DATES),
    },
    tool="flight_db",
))

_register(TaskType(
    name="car_rental",
    title="Car Rental Booking Protocol",
    purpose="A protocol for reserving a rental car in a city for several days.",
    keywords=("rent a car", "rental"),
    task_description="reserve a rental car in a city for several days",
    input_schema=_schema(
        city=("string", "Rental city."),
        start_date=("string", "First rental day, formatted YYYY-MM-DD."),
        days=("integer", "Rental duration in days."),
    ),
    output_schema=_schema(
        model=("string", "Vehicle class reserved."),
        price_per_day=("number", "Daily price in USD."),
        confirmation=("string", "Reservation confirmation code."),
    ),
    example_input={"city": "Madrid", "start_date": "2025-02-08", "days": 4},
    example_output={"model": "midsize sedan", "price_per_day": 45.0, "confirmation": "CR-5520"},
    question_template="Please rent a car in {city} starting {start_date} for {days} days.",
    answer_template="Reserved a {model} in {city}: {price_per_day} USD per day, confirmation {confirmation}.",
    make_payload=lambda rng: {
        "city": rng.choice(CITIES),
        "start_date": rng.choice(DATES),
        "days": rng.randint(1, 10),
    },
    tool="rental_db",
))

_register(TaskType(
    name="restaurant_booking",
    title="Restaurant Table Reservation Protocol",
    purpose="A protocol for reserving a restaurant table for a party.",
    keywords=("table", "reserve"),
    task_description="reserve a restaurant table for a party",
    input_schema=_schema(
        city=("string", "City of the restaurant."),
        date=("string", "Reservation date, formatted YYYY-MM-DD."),
        time=("string", "Reservation time, formatted HH:MM."),
        party_size=("integer", "Number of people."),
    ),
    output_schema=_schema(
        restaurant=("string", "Name of the restaurant."),
        table=("string", "Table identifier."),
        confirmed=("boolean", "Whether the reservation is confirmed."),
    ),
    example_input={"city": "Tokyo", "date": "2024-12-05", "time": "19:00", "party_size": 4},
    example_output={"restaurant": "Olive & Thyme", "table": "T-8", "confirmed": True},
    question_template="Please reserve a table for {party_size} in {city} on {date} at {time}.",
    answer_template="Reserved a table for {party_size} at {restaurant} ({table}) on {date} at {time}, confirmed: {confirmed}.",
    make_payload=lambda rng: {
        "city": rng.choice(CITIES),
        "date": rng.choice(DATES),
        "time": rng.choice(TIMES),
        "party_size": rng.randint(2, 8),
    },
    tool="table_db",
))


# ── derived artifacts ────────────────────────────────────────────────

def _schema_skeleton(schema: dict) -> str:
    fields = ",\n".join(f'    "{name}": {prop.get("type", "string")}'
                        for name, prop in schema.get("properties", {}).items())
    return f"  {{\n{fields}\n  }}"


def _schema_field_docs(schema: dict) -> str:
    return "\n".join(
        f"- {name}: {prop.get('doc', '')}"
        for name, prop in schema.get("properties", {}).items()
    )


def _indent_json(obj: dict) -> str:
    return "\n".join("  " + line for line in json.dumps(obj, indent=2).splitlines())


def pd_text(task: TaskType) -> str:
    """Canonical protocol text for a task type; byte-identical across runs."""
    if task.name == "weather":
        return WEATHER_PD_TEXT
    body = (
        "Input Message\n"
        "\n"
        "The input message is a JSON object with the following structure:\n"
        "\n"
        f"{_schema_skeleton(task.input_schema)}\n"
        "\n"
        f"{_schema_field_docs(task.input_schema)}\n"
        "\n"
        "Output Message\n"
        "\n"
        "The output message is a JSON object with the following structure:\n"
        "\n"
        f"{_schema_skeleton(task.output_schema)}\n"
        "\n"
        f"{_schema_field_docs(task.output_schema)}\n"
        "\n"
        "Example\n"
        "\n"
        "Input:\n"
        "\n"
        f"{_indent_json(task.example_input)}\n"
        "\n"
        "Output:\n"
        "\n"
        f"{_indent_json(task.example_output)}\n"
    )
    return render_document("\n" + body, ProtocolMetadata(task.title, task.purpose))


def classify(text: str) -> str | None:
    """Map free text (a question or a protocol title) to a task type name."""
    lowered = text.lower()
    for task in CATALOG.values():
        if any(keyword in lowered for keyword in task.keywords):
            return task.name
    return None


def task_for_protocol_title(title: str) -> TaskType | None:
    for task in CATALOG.values():
        if task.title == title:
            return task
    return None


def format_question(task: TaskType, payload: dict) -> str:
    return task._question.format(payload)


def format_answer(task: TaskType, payload: dict, result: dict) -> str:
    return task._answer.format({**payload, **result})


def routine_for(task: TaskType, side: str, protocol_hash: str) -> Routine:
    """The routine for *side* of *task*'s protocol: a sender's writes the
    payload's fields into the input message, a receiver's runs the task's
    tool steps."""
    schema = {k: v for k, v in task.input_schema.items() if k != "type"}
    if side == SENDER:
        return Routine(protocol_hash, SENDER, schema,
                       output_template=_fields_of("input", task.input_schema))
    return Routine(protocol_hash, RECEIVER, schema,
                   tuple(RoutineStep(**step) for step in task.steps), task.output_template)
